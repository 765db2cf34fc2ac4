package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lat := metricDef{"latency_p50_ms", "ms", lower, 0.10}
	thr := metricDef{"throughput_ops_s", "1/s", higher, 0.10}
	sim := metricDef{"sim_ms_per_op", "sim_ms", lower, 0}
	tight := []float64{20.0, 20.2, 19.9, 20.1}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lat, tight, []float64{20.1, 20.0, 20.3, 19.8}, verdictOK},
		{"5% slower is inside a 10% bound", lat, tight, []float64{21.0, 21.1, 20.9, 21.0}, verdictOK},
		{"15% slower", lat, tight, []float64{23.0, 23.1, 22.9, 23.2}, verdictWorse},
		{"faster is never worse", lat, tight, []float64{10, 10.1, 9.9, 10}, verdictOK},
		{"15% less throughput", thr, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, verdictWorse},
		{"15% more throughput", thr, []float64{100, 101, 99, 100}, []float64{115, 116, 114, 115}, verdictOK},
		{"spread wider than the bound", lat, []float64{20, 30, 25, 18}, []float64{26, 31, 19, 24}, verdictUnresolved},
		{"wide spread but every run better", lat, []float64{20, 30, 25, 18}, []float64{10, 12, 9, 11}, verdictOK},
		{"exact metric repeats", sim, []float64{4.14959, 4.14959}, []float64{4.14959}, verdictOK},
		{"exact metric moved", sim, []float64{4.14959}, []float64{4.14960}, verdictDiffers},
		{"one side empty", lat, tight, nil, verdictMissing},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesOneRowPerWorkload(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for _, sp := range workloads() {
			for run := 0; run < 4; run++ {
				seed := uint64(run%2 + 1)
				m := metricSet{}
				for _, d := range endToEnd {
					m.set(d.Name, 10*scale+0.01*float64(run))
				}
				m.set("fail_frac", 0)
				if sp.name != "sw_eval" {
					// Like program_search: exact for a seed, different between seeds.
					m.set("sim_ms_per_op", 4.14959+float64(seed))
					m.set(simBusy.Name, 4.15)
				}
				rec := runRecord{Schema: schemaVersion, Workload: sp.name, Seed: seed, Metrics: m}
				if err := appendResult(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("same.json", 1), write("slow.json", 1.5)

	var out bytes.Buffer
	bad, err := compareFiles(&out, a, same)
	if err != nil || bad {
		t.Fatalf("identical sets: bad %v, err %v\n%s", bad, err, out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if len(rows) != len(workloads()) {
		t.Fatalf("%d rows, want one per workload:\n%s", len(rows), out.String())
	}
	for i, sp := range workloads() {
		if !strings.HasPrefix(rows[i], sp.name) || strings.Contains(rows[i], verdictWorse) {
			t.Errorf("row %d = %q", i, rows[i])
		}
	}
	if strings.Contains(rows[len(rows)-1], "sim_ms_per_op") {
		t.Errorf("sw_eval has no simulated clock: %q", rows[len(rows)-1])
	}

	out.Reset()
	bad, err = compareFiles(&out, a, slow)
	if err != nil || !bad {
		t.Fatalf("a set 50%% slower must be reported: bad %v, err %v", bad, err)
	}
	// More CPU per op is worse; the same numbers read as throughput are better.
	if !strings.Contains(out.String(), "cpu_ms_per_op=worse") || !strings.Contains(out.String(), "throughput_ops_s=ok") {
		t.Errorf("verdicts:\n%s", out.String())
	}
}
