package repro

// The bench-API guard. bench/ is frozen: every name it compiles against stays
// until ROADMAP item 1(a) moves it onto the real API. The names only bench/
// uses live in one bench_api.go per package (all of internal/core), plus the
// struct fields whose doc comment starts with "Bench-only:", so the rest of
// each package is free to change. checkBenchAPI holds that line from both
// sides: nothing outside bench/ and the bench_api.go files may use a
// quarantined name (tests may: they pin the bytes the shims produce), and
// every quarantined name must still be reached from bench/ — used there, or
// by another package's bench_api.go — so the quarantine cannot collect dead
// code.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestBenchAPIQuarantine runs the guard over this module.
func TestBenchAPIQuarantine(t *testing.T) {
	findings, err := checkBenchAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestBenchAPIGuardReports runs the guard over the fixture module in
// testdata/benchapi.txtar, which plants one violation of each kind, and
// wants each reported at its file and line: nothing for the fixture's test
// file, which may use the shim.
func TestBenchAPIGuardReports(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("testdata", "benchapi.txtar"))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := unpackTxtar(root, string(archive)); err != nil {
		t.Fatal(err)
	}
	findings, err := checkBenchAPI(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"app/app.go:8: uses bench-only lib.Config.Old outside bench/",
		"app/app.go:9: uses bench-only lib.Shim outside bench/",
		"lib/bench_api.go:9: bench-only lib.Dead has no use left in bench/",
	}
	if !reflect.DeepEqual(findings, want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(findings, "\n"), strings.Join(want, "\n"))
	}
}

// unpackTxtar writes the files of a txtar archive ("-- name --" lines, each
// followed by the file's contents; text before the first is a comment) under
// root.
func unpackTxtar(root, archive string) error {
	var name string
	var body strings.Builder
	flush := func() error {
		if name == "" {
			return nil
		}
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(body.String()), 0o644)
	}
	for _, line := range strings.SplitAfter(archive, "\n") {
		if n, ok := strings.CutPrefix(strings.TrimSpace(line), "-- "); ok && strings.HasSuffix(n, " --") {
			if err := flush(); err != nil {
				return err
			}
			name = strings.TrimSuffix(n, " --")
			body.Reset()
			continue
		}
		body.WriteString(line)
	}
	return flush()
}

// checkBenchAPI type-checks the module rooted at root and returns its
// violations of the bench-only rule as "file:line: message", file relative to
// root, sorted. Each module package is type-checked once from the files
// parsePackages read, the standard library by go/importer from source, so the
// check needs no go command and no network.
func checkBenchAPI(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, modPath, err := parsePackages(fset, root)
	if err != nil {
		return nil, err
	}
	if pkgs[modPath+"/bench"] == nil {
		return nil, fmt.Errorf("no bench/ package in the module at %s", root)
	}
	m := &moduleImporter{
		fset: fset,
		pkgs: pkgs,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	for path := range pkgs {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}

	quarantined := map[types.Object]string{}
	for _, p := range pkgs {
		for _, f := range p.files {
			benchAPI := filepath.Base(fset.File(f.Pos()).Name()) == "bench_api.go"
			for id, name := range quarantinedDecls(f, p.name, benchAPI) {
				quarantined[m.info.Defs[id]] = name
			}
		}
	}
	reached := map[types.Object]bool{}
	var findings []string
	for id, obj := range m.info.Uses {
		name, ok := quarantined[obj]
		if !ok {
			continue
		}
		at := fset.Position(id.Pos())
		rel := relPath(root, at.Filename)
		switch {
		case strings.HasPrefix(rel, "bench/"):
			reached[obj] = true
		case path.Base(rel) != "bench_api.go":
			findings = append(findings, fmt.Sprintf("%s:%d: uses bench-only %s outside bench/", rel, at.Line, name))
		case path.Dir(rel) != path.Dir(relPath(root, fset.Position(obj.Pos()).Filename)):
			reached[obj] = true // by another package's bench_api.go
		}
	}
	for obj, name := range quarantined {
		if !reached[obj] {
			at := fset.Position(obj.Pos())
			findings = append(findings, fmt.Sprintf("%s:%d: bench-only %s has no use left in bench/", relPath(root, at.Filename), at.Line, name))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// moduleImporter type-checks a module package the first time it is
// imported, recording every definition and use in info, and hands every
// other import path to std.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*pkg // by import path
	std  types.Importer
	info *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.types == nil {
		conf := types.Config{Importer: m}
		tp, err := conf.Check(path, m.fset, p.files, m.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		p.types = tp
	}
	return p.types, nil
}

// pkg is one package directory of the module and its files for this
// platform: the non-test ones, and for bench/ the in-package tests too.
type pkg struct {
	name  string
	files []*ast.File
	types *types.Package
}

// parsePackages parses every package of the module at root. Directories the
// go tool skips (testdata, names starting with "." or "_") and nested modules
// are not part of the module.
func parsePackages(fset *token.FileSet, root string) (pkgs map[string]*pkg, modPath string, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, "", err
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return nil, "", fmt.Errorf("%s/go.mod names no module", root)
	}
	pkgs = map[string]*pkg{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel := relPath(root, dir)
		if rel != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &pkg{name: bp.Name}
		names := bp.GoFiles
		if rel == "bench" {
			names = append(names, bp.TestGoFiles...)
		}
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		pkgs[path.Join(modPath, rel)] = p
		return nil
	})
	return pkgs, modPath, err
}

// quarantinedDecls returns the quarantined names f declares, with the
// position of each declaring identifier: in a bench_api.go file every
// exported top-level name and method, anywhere the fields of a top-level
// struct type whose doc comment starts with "Bench-only:".
func quarantinedDecls(f *ast.File, pkgName string, benchAPI bool) map[*ast.Ident]string {
	decls := map[*ast.Ident]string{}
	add := func(id *ast.Ident, qualified string) {
		if id.IsExported() {
			decls[id] = pkgName + "." + qualified
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !benchAPI {
				continue
			}
			if d.Recv == nil {
				add(d.Name, d.Name.Name)
			} else {
				add(d.Name, receiverName(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if benchAPI {
						add(s.Name, s.Name.Name)
					}
					st, ok := s.Type.(*ast.StructType)
					if !ok || !s.Name.IsExported() {
						continue
					}
					for _, field := range st.Fields.List {
						if strings.HasPrefix(field.Doc.Text(), "Bench-only:") {
							for _, id := range field.Names {
								add(id, s.Name.Name+"."+id.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if benchAPI {
							add(id, id.Name)
						}
					}
				}
			}
		}
	}
	return decls
}

// receiverName is the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(rel)
}
