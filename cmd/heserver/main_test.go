package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestInvalidFlagsExitTwo mirrors cmd/herouter's CLI contract: the real
// executable must answer every invalid invocation with status 2 and name the
// offending flag on stderr — not hang, not exit 1, not start serving.
func TestInvalidFlagsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "heserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building heserver: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers"},
		{"negative queue depth", []string{"-queue-depth", "-1"}, "-queue-depth"},
		{"negative deadline", []string{"-deadline", "-1s"}, "-deadline"},
		{"sub-millisecond deadline", []string{"-deadline", "10us"}, "-deadline"},
		{"weight without value", []string{"-tenant-weights", "alice"}, "-tenant-weights"},
		{"zero weight", []string{"-tenant-weights", "alice=0"}, "-tenant-weights"},
		{"unknown flag", []string{"-no-such-flag"}, "no-such-flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit code %d, want 2\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("stderr does not mention %q:\n%s", tc.want, out)
			}
		})
	}
}
