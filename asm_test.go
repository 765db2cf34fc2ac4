package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// vectorReg matches an XMM or YMM register operand.
var vectorReg = regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)

// TestAVX2KernelsUseOnlyVEX scans every amd64 assembly file under internal/
// for a legacy-SSE instruction: a mnemonic without the V prefix of the VEX
// encoding whose operands name an X or Y register. One such instruction in
// a kernel that touches YMM registers costs an SSE/AVX state transition on
// every call; a single MOVQ AX, X1 once made a kernel seven times slower.
// Macro invocations are not instructions (their bodies are checked where
// they are defined), and general-register instructions are free to mix in.
func TestAVX2KernelsUseOnlyVEX(t *testing.T) {
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_amd64.s") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for _, bad := range legacySSE(string(src)) {
			t.Errorf("%s: legacy-SSE instruction %q; use its VEX form", path, bad)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no amd64 assembly found under internal/")
	}
}

// legacySSE returns the instructions of one assembly file that are not VEX
// encoded but name a vector register.
func legacySSE(src string) []string {
	lines := strings.Split(src, "\n")
	macros := map[string]bool{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(l), "#define"); ok {
			name := strings.FieldsFunc(rest, func(r rune) bool { return r == '(' || r == ' ' || r == '\t' })
			if len(name) > 0 {
				macros[name[0]] = true
			}
		}
	}
	var bad []string
	for _, l := range lines {
		l, _, _ = strings.Cut(l, "//")
		l = strings.TrimSuffix(strings.TrimSpace(l), `\`)
		if rest, ok := strings.CutPrefix(l, "#define"); ok {
			// The body after the macro's name and parameters, if any.
			rest = strings.TrimSpace(rest)
			if i := strings.IndexAny(rest, "( \t"); i < 0 {
				rest = ""
			} else if rest[i] == '(' {
				_, rest, _ = strings.Cut(rest, ")")
			} else {
				rest = rest[i:]
			}
			l = rest
		} else if strings.HasPrefix(l, "#") {
			continue
		}
		for _, ins := range strings.Split(l, ";") {
			f := strings.Fields(ins)
			if len(f) == 0 || strings.HasSuffix(f[0], ":") {
				continue
			}
			op := f[0]
			if i := strings.IndexByte(op, '('); i >= 0 {
				op = op[:i]
			}
			if macros[op] || strings.HasPrefix(op, "V") || op == "TEXT" {
				continue
			}
			if vectorReg.MatchString(strings.Join(f[1:], " ")) {
				bad = append(bad, strings.TrimSpace(ins))
			}
		}
	}
	return bad
}

// TestLegacySSEScanner holds the scanner to what it must find: instructions
// in a one-line macro body, in a continued macro body and in a function,
// and nothing in macro invocations, VEX instructions, labels or
// general-register moves.
func TestLegacySSEScanner(t *testing.T) {
	src := "#define ONE(a) MOVQ a, X1\n" +
		"#define TWO \\\n\tVMOVQ AX, X2; \\\n\tPXOR X3, X3\n" +
		"TEXT ·f(SB), NOSPLIT, $0-8\n\tONE(AX)\n\tTWO\n\tMOVQ AX, BX\n" +
		"loop:\n\tMOVQ AX, X1 // legacy\n\tVPOR Y1, Y2, Y3\n\tRET\n"
	got := legacySSE(src)
	want := []string{"MOVQ a, X1", "PXOR X3, X3", "MOVQ AX, X1"}
	if !slices.Equal(got, want) {
		t.Fatalf("legacySSE found %q, want %q", got, want)
	}
}
