package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fv"
)

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "heserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building heserver: %v\n%s", err, out)
	}
	return bin
}

// TestInvalidFlagsExitTwo mirrors cmd/herouter's CLI contract: the real
// executable must answer every invalid invocation with status 2 and name the
// offending flag on stderr — not hang, not exit 1, not start serving.
func TestInvalidFlagsExitTwo(t *testing.T) {
	bin := buildServer(t)
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers"},
		{"negative queue depth", []string{"-queue-depth", "-1"}, "-queue-depth"},
		{"negative deadline", []string{"-deadline", "-1s"}, "-deadline"},
		{"sub-millisecond deadline", []string{"-deadline", "10us"}, "-deadline"},
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

// TestSIGUSR1DumpsStatsAndKeepsServing drives the operator's probe on the
// real executable: SIGUSR1 makes the server log its engine stats snapshot,
// the snapshot is one JSON document that decodes into engine.Stats and
// counts the operations served so far, and the server answers the next
// request as if nothing had happened. SIGTERM then drains it to exit 0.
func TestSIGUSR1DumpsStatsAndKeepsServing(t *testing.T) {
	cmd := exec.Command(buildServer(t), "-addr", "127.0.0.1:0", "-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	// The test reads stderr line by line; a server that stops talking fails
	// the test instead of hanging it.
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	nextLine := func(what string) string {
		t.Helper()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stderr closed while waiting for %s", what)
			}
			return line
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		return ""
	}

	listening := regexp.MustCompile(`listening on (\S+) `)
	var addr string
	for addr == "" {
		if m := listening.FindStringSubmatch(nextLine("the listening line")); m != nil {
			addr = m[1]
		}
	}
	params, err := fv.NewParams(fv.TestConfig(65537))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cloud.Dial(addr, params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ct := fv.NewCiphertext(params, 2) // the zero degree-1 ciphertext: Add needs no keys
	if _, _, err := c.Add(ct, ct); err != nil {
		t.Fatalf("add before the dump: %v", err)
	}

	if err := cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	const prefix = "heserver engine stats: "
	line := nextLine("the stats dump")
	for !strings.HasPrefix(line, prefix) {
		line = nextLine("the stats dump")
	}
	// The snapshot is indented JSON: it ends at the first line that is the
	// closing brace alone.
	doc := strings.TrimPrefix(line, prefix)
	for line != "}" {
		line = nextLine("the end of the stats dump")
		doc += "\n" + line
	}
	var st engine.Stats
	if err := json.Unmarshal([]byte(doc), &st); err != nil {
		t.Fatalf("stats dump is not a JSON engine.Stats: %v\n%s", err, doc)
	}
	if st.Completed != 1 || st.Workers != 1 {
		t.Fatalf("stats dump reports %d completed ops on %d workers, want 1 on 1\n%s", st.Completed, st.Workers, doc)
	}

	if _, _, err := c.Add(ct, ct); err != nil {
		t.Fatalf("add after the dump: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the dump: %v", err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	goodbye := false
	for line := range lines {
		goodbye = goodbye || strings.Contains(line, "served 2 operations, goodbye")
	}
	err = cmd.Wait()
	exited = true
	if err != nil || !goodbye {
		t.Fatalf("drain after SIGTERM: exit %v, goodbye line seen: %v", err, goodbye)
	}
}

// TestFlagSetGolden pins the command's flag set against a checked-in list, so
// that adding or removing a flag is a reviewed diff and every flag is named by
// a test. flag.VisitAll visits in sorted order; the testing package's own
// test.* flags are skipped.
func TestFlagSetGolden(t *testing.T) {
	want := []string{
		"addr",
		"batch",
		"ckks",
		"deadline",
		"debug-addr",
		"drain-timeout",
		"integrity",
		"keycache",
		"node-id",
		"paper",
		"queue-depth",
		"read-timeout",
		"seed",
		"t",
		"tenant-quota",
		"tenants",
		"workers",
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
