package hwsim

import (
	"math/rand"
	"strings"
	"testing"
)

// roundTripLines is a fragment of the Mult pipeline with one line of every
// form.
var roundTripLines = []string{
	"; a fragment of the Mult pipeline",
	"lift  s0",
	"rearr s0 [Q]",
	"ntt   s0 [Q]",
	"rearr s0 [P]",
	"ntt   s0 [P]",
	"cmul  s4, s0, s2 [P]",
	"cadd  s4, s4, s3 [Q]",
	"csub  s5, s4, s3 [Q]",
	"cmac  s5, s0, s2 [Q]",
	"wdec  s9, s8, #3",
	"intt  s4 [P]",
	"scale s8, s4",
	"dma   98304",
	"resc  s10, s8 [P]",
}

// untaggedWithTag are batch tags on the forms whose listing shows none: the
// listing would drop the tag, so the assembler refuses it.
var untaggedWithTag = []string{
	"lift s0 [P]",
	"scale s1, s0 [P]",
	"wdec s2, s1, #3 [P]",
}

func TestAssembleRoundTrip(t *testing.T) {
	src := strings.Join(roundTripLines, "\n")
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Steps) != 14 {
		t.Fatalf("assembled %d steps, want 14", len(prog.Steps))
	}
	if err := ValidateProgram(prog, 16); err != nil {
		t.Fatal(err)
	}
	// Disassemble and re-assemble: must be a fixed point.
	text := DisasmProgram(prog)
	prog2, err := Assemble(text)
	if err != nil {
		t.Fatalf("re-assembly failed: %v\n%s", err, text)
	}
	if DisasmProgram(prog2) != text {
		t.Fatal("assembly/disassembly is not a fixed point")
	}
	// Spot checks.
	in := prog.Steps[5].Instr
	if in.Op != OpCMul || in.Dst != 4 || in.A != 0 || in.B != 2 || in.Batch != BatchP {
		t.Fatalf("cmul parsed wrong: %+v", in)
	}
	if prog.Steps[12].Transfer == nil || prog.Steps[12].Transfer.Bytes != 98304 {
		t.Fatal("dma parsed wrong")
	}
	if in := prog.Steps[13].Instr; in.Op != OpRescale || in.Dst != 10 || in.A != 8 || in.Batch != BatchP {
		t.Fatalf("resc parsed wrong: %+v", in)
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate s0",    // unknown mnemonic
		"ntt",              // missing operand
		"ntt s0, s1",       // too many operands
		"cmul s0, s1",      // too few operands
		"ntt x0",           // bad slot syntax
		"ntt s999",         // slot out of range
		"ntt s0 [X]",       // bad batch
		"wdec s0, s1, s2",  // digit must be immediate
		"wdec s0, s1, #-1", // bad digit
		"dma -5",           // negative transfer
		"dma many",         // non-numeric transfer
		"scale s0, s1, s2", // wrong arity
		"lift s0, s1",      // wrong arity
	}
	bad = append(bad, untaggedWithTag...)
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q assembled without error", src)
		}
	}
}

func TestAssembledProgramExecutes(t *testing.T) {
	c := testCoproc(t, 64)
	prog, err := Assemble(`
		; lift operand 0, transform batch Q, inverse, restore
		lift  s0
		rearr s0 [Q]
		ntt   s0 [Q]
		intt  s0 [Q]
	`)
	if err != nil {
		t.Fatal(err)
	}
	polys := randRows(rand.New(rand.NewSource(77)), c.Mods[:c.KQ], 64)
	c.LoadSlotCoeff(0, 0, polys)
	total, err := c.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("program consumed no cycles")
	}
	// NTT then INTT leaves the q rows unchanged.
	got := readSlot(c, 0, 0, c.KQ)
	for i := range polys {
		if !got[i].Equal(polys[i]) {
			t.Fatal("assembled round-trip program corrupted the data")
		}
	}
}

// FuzzAssemble holds the assembler and the listing to one another: whatever
// text assembles, its listing re-assembles to the same instruction words,
// and a program the validator accepts survives Encode/DecodeInstr.
func FuzzAssemble(f *testing.F) {
	f.Add(strings.Join(roundTripLines, "\n"))
	for _, line := range append(roundTripLines, untaggedWithTag...) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		text := DisasmProgram(prog)
		again, err := Assemble(text)
		if err != nil {
			t.Fatalf("listing of %q does not re-assemble: %v\n%s", src, err, text)
		}
		if len(again.Steps) != len(prog.Steps) {
			t.Fatalf("listing of %q re-assembles to %d steps, want %d", src, len(again.Steps), len(prog.Steps))
		}
		for i, st := range prog.Steps {
			re := again.Steps[i]
			if st.Instr != nil {
				if re.Instr == nil || re.Instr.Encode() != st.Instr.Encode() {
					t.Fatalf("step %d of %q: %s re-assembles to another word", i, src, st.Instr.Disasm())
				}
			} else if re.Transfer == nil || re.Transfer.Bytes != st.Transfer.Bytes {
				t.Fatalf("step %d of %q: dma %d re-assembles to another step", i, src, st.Transfer.Bytes)
			}
		}
		if ValidateProgram(prog, 256) != nil {
			return
		}
		for _, st := range prog.Steps {
			if st.Instr == nil {
				continue
			}
			if got, err := DecodeInstr(st.Instr.Encode()); err != nil || got != *st.Instr {
				t.Fatalf("validated %+v decodes as %+v (%v)", *st.Instr, got, err)
			}
		}
	})
}
