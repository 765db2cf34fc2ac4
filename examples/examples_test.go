// Package examples holds only this smoke test: the example programs are the
// subdirectories, each its own main package.
package examples

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds every example program and runs it to completion at
// its built-in parameters: each validates its own result (decrypts and
// compares) and exits non-zero on a mismatch, so exit status 0 is the
// assertion. Without this a `go vet`-only build is all that guards them.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven programs")
	}
	dirs, err := filepath.Glob("*/main.go")
	if err != nil || len(dirs) != 7 {
		t.Fatalf("found %d example programs (%v), want 7", len(dirs), err)
	}
	bin := t.TempDir()
	for _, main := range dirs {
		name := filepath.Dir(main)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, exe)
			cmd.Dir = t.TempDir() // anything an example writes stays out of the tree
			start := time.Now()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("exited with %v after %v\n%s", err, time.Since(start), out)
			}
			t.Logf("exit 0 in %v", time.Since(start).Round(time.Millisecond))
		})
	}
}
