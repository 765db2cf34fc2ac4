package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

var wallClockRows = []string{"  This repo's Go software Mult", "  Sim HW speedup vs this repo's software"}

func maskWallClock(out []byte) []byte {
	lines := strings.Split(string(out), "\n")
	for i, l := range lines {
		for _, row := range wallClockRows {
			if strings.HasPrefix(l, row) {
				lines[i] = row + "  <wall clock, masked>"
			}
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

// TestHetablesSmoke runs the real executable: on the small parameter set
// every table of the evaluation section is, apart from the two wall-clock
// rows, byte for byte testdata/small.golden, and the extended Table III
// (the double-buffered stream schedule) is testdata/small_table3x.golden —
// "the tables did not move" as a test instead of a hand diff (go test
// ./cmd/hetables -update rewrites the files after a deliberate change) — and
// an unknown -table is a usage error (exit 2), not an empty success.
func TestHetablesSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hetables")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hetables: %v\n%s", err, out)
	}

	for _, c := range []struct {
		golden    string
		args      []string
		wallClock int
	}{
		{"small.golden", []string{"-small"}, len(wallClockRows)},
		{"small_table3x.golden", []string{"-small", "-table3x"}, 0},
	} {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("hetables %v: %v\n%s", c.args, err, out)
		}
		got := maskWallClock(out)
		if n := bytes.Count(got, []byte("<wall clock, masked>")); n != c.wallClock {
			t.Fatalf("hetables %v: masked %d wall-clock rows, want %d:\n%s", c.args, n, c.wallClock, out)
		}
		golden := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
				i++
			}
			t.Fatalf("hetables %v differs from %s from line %d on (rerun with -update if the change is deliberate)\n--- got\n%s\n--- want\n%s",
				c.args, golden, i+1, strings.Join(gotLines[i:], "\n"), strings.Join(wantLines[i:], "\n"))
		}
	}

	out, err := exec.Command(bin, "-small", "-table", "6").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("unknown table: err = %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown table "6"`) {
		t.Fatalf("stderr does not name the unknown table:\n%s", out)
	}
}
