package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHetablesSmoke runs the real executable: the small parameter set must
// render every table of the evaluation section, and an unknown -table is a
// usage error (exit 2), not an empty success.
func TestHetablesSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hetables")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hetables: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-small").CombinedOutput()
	if err != nil {
		t.Fatalf("hetables -small: %v\n%s", err, out)
	}
	for _, want := range []string{"Table I ", "Table II ", "Table III ", "Table IV ",
		"Table V ", "Sec. VI-C", "Sec. VI-E", "Ablations"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("hetables -small output missing %q", want)
		}
	}

	out, err = exec.Command(bin, "-small", "-table", "6").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("unknown table: err = %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown table "6"`) {
		t.Fatalf("stderr does not name the unknown table:\n%s", out)
	}
}
