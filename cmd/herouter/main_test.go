package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildHerouter compiles the command once per test binary; each table entry
// then runs the real executable, so the exit-code contract is tested end to
// end, flag parsing included.
func buildHerouter(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "herouter")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building herouter: %v\n%s", err, out)
	}
	return bin
}

// TestInvalidFlagsExitTwo pins the CLI contract: every invalid invocation
// must exit with status 2 (the usage-error code, matching heserver) and name
// the offending flag on stderr — not hang, not exit 1, not start serving.
func TestInvalidFlagsExitTwo(t *testing.T) {
	bin := buildHerouter(t)
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"no backends", nil, "-backends is required"},
		{"empty addr", []string{"-addr", " ", "-backends", "127.0.0.1:7101"}, "-addr"},
		{"bad backend entry", []string{"-backends", "id="}, "backend"},
		{"zero replicas", []string{"-backends", "127.0.0.1:7101", "-replicas", "0"}, "-replicas"},
		{"negative attempts", []string{"-backends", "127.0.0.1:7101", "-attempts", "-1"}, "-attempts"},
		{"zero attempt timeout", []string{"-backends", "127.0.0.1:7101", "-attempt-timeout", "0s"}, "-attempt-timeout"},
		{"zero probe interval", []string{"-backends", "127.0.0.1:7101", "-probe-interval", "0s"}, "-probe-interval"},
		{"zero probe timeout", []string{"-backends", "127.0.0.1:7101", "-probe-timeout", "0s"}, "-probe-timeout"},
		{"zero fail threshold", []string{"-backends", "127.0.0.1:7101", "-fail-threshold", "0"}, "-fail-threshold"},
		{"zero read timeout", []string{"-backends", "127.0.0.1:7101", "-read-timeout", "0s"}, "-read-timeout"},
		{"zero drain timeout", []string{"-backends", "127.0.0.1:7101", "-drain-timeout", "0s"}, "-drain-timeout"},
		{"zero watch interval", []string{"-backends", "127.0.0.1:7101", "-watch-interval", "0s"}, "-watch-interval"},
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

// TestFlagSetGolden pins the command's flag set against a checked-in list, so
// that adding or removing a flag is a reviewed diff and every flag is named by
// a test. flag.VisitAll visits in sorted order; the testing package's own
// test.* flags are skipped.
func TestFlagSetGolden(t *testing.T) {
	want := []string{
		"addr",
		"attempt-timeout",
		"attempts",
		"backends",
		"debug-addr",
		"drain-timeout",
		"fail-threshold",
		"node-id",
		"paper",
		"probe-interval",
		"probe-timeout",
		"read-timeout",
		"replicas",
		"t",
		"watch",
		"watch-interval",
	}
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("flag set changed:\n got %q\nwant %q", got, want)
	}
}
