package hwsim

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestDisasmForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNTT, A: 3, Batch: BatchP}, "ntt   s3 [P]"},
		{Instr{Op: OpINTT, A: 0, Batch: BatchQ}, "intt  s0 [Q]"},
		{Instr{Op: OpLift, A: 2}, "lift  s2"},
		{Instr{Op: OpScale, Dst: 8, A: 4}, "scale s8, s4"},
		{Instr{Op: OpDecomp, Dst: 14, A: 10, B: 5}, "wdec  s14, s10, #5"},
		{Instr{Op: OpCMul, Dst: 4, A: 0, B: 2, Batch: BatchP}, "cmul  s4, s0, s2 [P]"},
		{Instr{Op: OpCAdd, Dst: 5, A: 5, B: 7, Batch: BatchQ}, "cadd  s5, s5, s7 [Q]"},
	}
	for _, c := range cases {
		if got := c.in.Disasm(); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := (Instr{Op: Op(200)}).Disasm(); !strings.HasPrefix(got, ".word") {
		t.Errorf("unknown opcode should disassemble as raw word, got %q", got)
	}
}

func TestValidateProgram(t *testing.T) {
	good := &Program{}
	good.AddInstr(Instr{Op: OpNTT, A: 3, Batch: BatchQ})
	good.AddInstr(Instr{Op: OpCMul, Dst: 4, A: 0, B: 2})
	good.AddTransfer(Transfer{Bytes: 128})
	// Decomp's B is a digit index, not a slot; must not be slot-checked.
	good.AddInstr(Instr{Op: OpDecomp, Dst: 7, A: 3, B: 100})
	if err := ValidateProgram(good, 8); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := &Program{}
	bad.AddInstr(Instr{Op: OpInvalid})
	if err := ValidateProgram(bad, 8); err == nil {
		t.Fatal("invalid opcode accepted")
	}

	bad = &Program{}
	bad.AddInstr(Instr{Op: OpCMul, Dst: 20, A: 0, B: 1})
	if err := ValidateProgram(bad, 8); err == nil {
		t.Fatal("out-of-range slot accepted")
	}

	bad = &Program{}
	bad.AddInstr(Instr{Op: OpNTT, A: 0, Batch: Batch(7)})
	if err := ValidateProgram(bad, 8); err == nil {
		t.Fatal("invalid batch accepted")
	}

	bad = &Program{Steps: []Step{{}}}
	if err := ValidateProgram(bad, 8); err == nil {
		t.Fatal("empty step accepted")
	}

	bad = &Program{}
	bad.AddTransfer(Transfer{Bytes: -1})
	if err := ValidateProgram(bad, 8); err == nil {
		t.Fatal("negative transfer accepted")
	}
}

// TestBOperandFitsInstructionWord: the word's B field is 7 bits, so a
// three-slot form naming s128–s255 as its third slot would encode as another
// slot (s200 decodes as s72). Both gates refuse it, and whatever
// ValidateProgram accepts round-trips through Encode/DecodeInstr.
func TestBOperandFitsInstructionWord(t *testing.T) {
	if _, err := Assemble("cmul s0, s1, s200"); err == nil {
		t.Error("Assemble accepted a third slot past the B field")
	}
	if _, err := Assemble("cmul s200, s201, s127"); err != nil {
		t.Errorf("Assemble refused s127 as B, or a wide Dst/A: %v", err)
	}
	bad := &Program{}
	bad.AddInstr(Instr{Op: OpCMul, Dst: 0, A: 1, B: 200})
	if err := ValidateProgram(bad, 256); err == nil {
		t.Error("ValidateProgram accepted B = 200 against a 256-slot file")
	}
	bad = &Program{}
	bad.AddInstr(Instr{Op: OpDecomp, Dst: 0, A: 1, B: 128})
	if err := ValidateProgram(bad, 256); err == nil {
		t.Error("ValidateProgram accepted digit index 128")
	}

	r := rand.New(rand.NewSource(25))
	accepted := 0
	for i := 0; i < 5000; i++ {
		in := Instr{
			Op:    Op(r.Intn(int(opSentinel) + 1)),
			Dst:   uint8(r.Intn(256)),
			A:     uint8(r.Intn(256)),
			B:     uint8(r.Intn(256)),
			Batch: Batch(r.Intn(3)),
		}
		p := &Program{}
		p.AddInstr(in)
		if ValidateProgram(p, 256) != nil {
			continue
		}
		accepted++
		if got, err := DecodeInstr(in.Encode()); err != nil || got != in {
			t.Fatalf("validated %+v decodes as %+v (%v)", in, got, err)
		}
	}
	if accepted == 0 {
		t.Fatal("no random instruction validated")
	}
}

// TestISATable walks the opcode table: every row's instruction survives
// Disasm → Assemble, ValidateProgram range-checks exactly the slots it reads
// and writes, and the cost table prices it above bare dispatch.
func TestISATable(t *testing.T) {
	c := testCoproc(t, 64)
	for op := OpInvalid + 1; op < opSentinel; op++ {
		row := isa[op]
		in := Instr{Op: op}
		var slots []uint8
		for k, f := range row.form.operands {
			*in.field(f) = uint8(3 + k)
			if f != fieldDigit {
				slots = append(slots, uint8(3+k))
			}
		}
		if row.tagged {
			in.Batch = BatchP
		}

		prog, err := Assemble(in.Disasm())
		if err != nil || len(prog.Steps) != 1 || *prog.Steps[0].Instr != in {
			t.Errorf("%v: %q does not re-assemble to %+v: %v", op, in.Disasm(), in, err)
		}

		reads, writes := in.Slots()
		if len(writes) != 1 || writes[0] != slots[0] {
			t.Errorf("%v writes %v, want its first operand s%d", op, writes, slots[0])
		}
		touched := append(reads, writes...)
		for _, s := range slots {
			if !slices.Contains(touched, s) {
				t.Errorf("%v: slot operand s%d is neither read nor written", op, s)
			}
		}
		for _, s := range touched {
			if !slices.Contains(slots, s) {
				t.Errorf("%v touches s%d, which no slot operand names", op, s)
			}
		}
		// Move one field at a time past an 8-slot memory file: the validator
		// must refuse exactly the fields that name a slot read or written.
		for _, f := range []field{fieldDst, fieldA, fieldB} {
			probe := in
			*probe.field(f) = 9
			reads, writes := probe.Slots()
			p := &Program{}
			p.AddInstr(probe)
			if want, got := slices.Contains(append(reads, writes...), 9), ValidateProgram(p, 8) != nil; got != want {
				t.Errorf("%v with field %d = 9: refused %v, want %v", op, f, got, want)
			}
		}

		if c.Cycles(in) <= c.Dispatch() {
			t.Errorf("%v costs %d cycles, no more than dispatch", op, c.Cycles(in))
		}
	}
}

func TestF1Estimate(t *testing.T) {
	n := F1CoprocessorsPerFPGA(PaperResourceConfig())
	// Paper Discussion: "each Amazon F1 instance could run at least ten
	// coprocessors in parallel".
	if n < 10 {
		t.Fatalf("F1 fits only %d co-processors, paper claims at least 10", n)
	}
	if n > 40 {
		t.Fatalf("F1 estimate %d implausibly high", n)
	}
	// Sanity: the estimate shrinks for a double-size configuration.
	big := PaperResourceConfig()
	big.NumRPAUs *= 2
	big.MemFileSlots *= 2
	big.LiftScaleCores *= 2
	if F1CoprocessorsPerFPGA(big) >= n {
		t.Fatal("bigger co-processor should fit fewer times")
	}
}

func TestRenderFig3(t *testing.T) {
	var sb strings.Builder
	if err := RenderFig3(&sb, 4096); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The paper's characteristic sequences must appear: core 0 starting
	// 0, 1024 and core 1 starting 1536, 512 in the m = n/2 stage.
	for _, want := range []string{"word 1536", "word  512", "0 memory conflicts", "m = 2048"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 3 rendering missing %q", want)
		}
	}
	if err := RenderFig3(&sb, 12); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestDMAEdgeCases(t *testing.T) {
	d := DMA{Timing: DefaultTiming()}
	// Chunk larger than the payload degenerates to a single transfer.
	a := d.Seconds(Transfer{Bytes: 1000, ChunkSize: 4096})
	b := d.Seconds(Transfer{Bytes: 1000})
	if a != b {
		t.Fatalf("oversized chunk should equal single transfer: %g vs %g", a, b)
	}
	// Cycle conversions are consistent.
	tr := Transfer{Bytes: 98304}
	if d.FPGACycles(tr).Seconds() < d.Seconds(tr)*0.99 {
		t.Fatal("FPGA cycle conversion lost time")
	}
	if d.ArmCycles(tr) == 0 {
		t.Fatal("Arm cycle conversion broken")
	}
}

// TestNewCoprocessorRefusesOtherVariants: only the HPS co-processor
// executes; any other variant word is a typed refusal.
func TestNewCoprocessorRefusesOtherVariants(t *testing.T) {
	qm, pm, ext, sc := testBases(t, 64, 3, 4)
	if _, err := NewCoprocessor(qm, pm, 64, ext, sc, VariantHPS+1, DefaultTiming(), 8); !errors.Is(err, ErrVariant) {
		t.Fatalf("variant 1: %v, want ErrVariant", err)
	}
}

// TestNewValidatesSlotCount: instructions and DMA calls address a slot in one
// byte, so the memory file holds 1 to 256 slots; any other count is an error,
// not a makeslice panic or a file whose upper slots alias the lower ones.
func TestNewValidatesSlotCount(t *testing.T) {
	qm, pm, ext, sc := testBases(t, 64, 3, 4)
	for _, tc := range []struct {
		slots int
		ok    bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{256, true},
		{257, false},
		{1000, false},
	} {
		c, err := New(qm, pm, 64, ext, sc, DefaultTiming(), tc.slots)
		if (err == nil) != tc.ok || (c != nil) != tc.ok {
			t.Errorf("New with %d slots: co-processor %v, err %v; want accepted = %v", tc.slots, c != nil, err, tc.ok)
		}
	}
}

func TestSecondCoprocessorIndependence(t *testing.T) {
	// Two co-processors built from the same factory must not share memory.
	qm, pm, ext, sc := testBases(t, 64, 3, 4)
	a, err := New(qm, pm, 64, ext, sc, DefaultTiming(), 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(qm, pm, 64, ext, sc, DefaultTiming(), 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	rows := randRows(r, a.Mods[:a.KQ], 64)
	a.LoadSlotCoeff(0, 0, rows)
	got := readSlot(b, 0, 0, b.KQ)
	for i := range got {
		for _, c := range got[i].Coeffs {
			if c != 0 {
				t.Fatal("co-processors share memory state")
			}
		}
	}
}
