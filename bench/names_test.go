package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The tables in metrics.go and the workload list are what the command emits;
// BENCHMARK.json must say the same, name for name, unit for unit.
func TestBenchmarkJSONMatchesEmittedNames(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
		for i := range perLayer {
			if i >= len(b.PerLayer) || b.PerLayer[i] != perLayer[i] {
				t.Errorf(" first difference at %d: code %+v", i, perLayer[i])
				break
			}
		}
	}
	var specs []spec // the gated ones: BENCHMARK.json lists exactly these
	for _, s := range workloads() {
		if !ungated[s.name] {
			specs = append(specs, s)
		}
	}
	if len(specs)+len(ungated) != len(workloads()) {
		t.Fatalf("ungated %v names a workload the command does not have", ungated)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the command", len(b.Workloads), len(specs))
	}
	for i, s := range specs {
		if b.Workloads[i].Name != s.name || b.Workloads[i].Why != s.why {
			t.Errorf("workload %d: json %+v, code %q / %q", i, b.Workloads[i], s.name, s.why)
		}
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
}

// The limits of the benchmark contract, so that an edit which breaks one
// fails here and not in the driver.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d bytes, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range b.EndToEnd {
		check("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == lower {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, b.EndToEnd...), b.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range b.PerLayer {
		check("per-layer", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

// What a run emits is exactly one table, whatever it managed to measure.
func TestEmittedMetricsAreExactlyTheTable(t *testing.T) {
	m := metricSet{}
	m.set("latency_p50_ms", 1)
	m.set("cloud.wire_ms", 2)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if got := m.pick(defs); len(got) != len(defs) {
			t.Fatalf("picked %d metrics from a table of %d", len(got), len(defs))
		}
		want := map[string]string{}
		for _, d := range defs {
			want[d.Name] = d.Unit
		}
		for name, v := range m.pick(defs) {
			if want[name] != v.Unit {
				t.Errorf("%s emitted with unit %q, table says %q", name, v.Unit, want[name])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("setting a metric no table defines must panic")
		}
	}()
	m.set("cloud.no_such_metric", 1)
}
