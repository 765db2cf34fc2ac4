package core

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
)

// An accelerator is one co-processor: every constructor serves coprocs = 1
// and refuses any other count with an error (several co-processors are
// internal/engine's worker pool).
func TestConstructorsRefuseAllButOneCoprocessor(t *testing.T) {
	p, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	constructors := []struct {
		name  string
		build func(coprocs int) (served bool, err error)
	}{
		{"New", func(n int) (bool, error) { a, err := New(p, hwsim.VariantHPS, n); return a != nil, err }},
		{"NewCKKS", func(n int) (bool, error) { a, err := NewCKKS(cp, n); return a != nil, err }},
	}
	for _, c := range constructors {
		for _, coprocs := range []int{0, 2, -1} {
			if served, err := c.build(coprocs); err == nil || served {
				t.Errorf("%s(coprocs = %d): accelerator %v, err %v; want a refusal", c.name, coprocs, served, err)
			}
		}
		if served, err := c.build(1); err != nil || !served {
			t.Errorf("%s(coprocs = 1): accelerator %v, err %v; want one served", c.name, served, err)
		}
	}
}

// TestOnlyBenchImportsCore is the facade's import guard: apart from bench/
// and this package's own tests, no file of the module imports
// repro/internal/core. Everything else drives internal/sched, so the facade
// cannot gain callers back before ROADMAP item 1(a) deletes it. Directories
// the go tool skips (testdata, names starting with "." or "_") and nested
// modules are not part of the module and are not read.
func TestOnlyBenchImportsCore(t *testing.T) {
	const self = "repro/internal/core"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); rel != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, spec := range f.Imports {
			if imp, _ := strconv.Unquote(spec.Path.Value); imp != self {
				continue
			}
			ownTest := strings.HasPrefix(rel, "internal/core/") && strings.HasSuffix(rel, "_test.go")
			if !strings.HasPrefix(rel, "bench/") && !ownTest {
				t.Errorf("%s imports %s: only bench/ may (drive internal/sched instead)", rel, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("read only %d Go files under %s: not the module", files, root)
	}
}
