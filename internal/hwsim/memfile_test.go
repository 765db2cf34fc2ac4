package hwsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

// The memory file is resident: ClearSlots keeps every row's storage and only
// marks it empty. These tests prove the reuse is invisible — a wiped row
// reads as zero whatever it held, and every instruction computes from a dirty
// file exactly what it computes from a new one.

// dirty leaves the file the way a previous tenant's aborted operation would:
// every row of every slot holding in-range garbage, then wiped.
func dirty(c *Coprocessor, r *rand.Rand) {
	for i := range c.slots {
		c.LoadSlot(uint8(i), 0, randRows(r, c.Mods, c.N), domNTT)
	}
	c.ClearSlots()
}

func testChain(t testing.TB, n, kq int) *Coprocessor {
	t.Helper()
	qm, pm, _, _ := testBases(t, n, kq, 1)
	basis, err := rns.NewBasis(qm)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoprocessorChain(qm, pm[0], basis, n, nil, DefaultTiming(), 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustExec(t *testing.T, c *Coprocessor, ins ...Instr) {
	t.Helper()
	for _, in := range ins {
		if _, err := c.Exec(in); err != nil {
			t.Fatalf("%s: %v", in.Disasm(), err)
		}
	}
}

// rowWise builds the schoolbook result of a coefficient-wise instruction.
func rowWise(mods []ring.Modulus, a, b []poly.Poly, f func(m ring.Modulus, x, y uint64) uint64) []poly.Poly {
	out := make([]poly.Poly, len(a))
	for j := range a {
		out[j] = poly.NewPoly(mods[j], len(a[j].Coeffs))
		for i := range a[j].Coeffs {
			out[j].Coeffs[i] = f(mods[j], a[j].Coeffs[i], b[j].Coeffs[i])
		}
	}
	return out
}

func wantRows(t *testing.T, what string, got, want []poly.Poly) {
	t.Helper()
	for j := range want {
		if !got[j].Equal(want[j]) {
			t.Fatalf("%s: row %d differs from the schoolbook result", what, j)
		}
	}
}

// TestClearedFileReadsAsZero is the isolation property: after ClearSlots no
// slot or row gives back a residue of the operation before — and the storage
// is the same storage, not a fresh allocation.
func TestClearedFileReadsAsZero(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(21))
	dirty(c, r)
	resident := &c.slots[3].rows[2].Coeffs[0]
	for i := range c.slots {
		for j, row := range c.ReadSlot(uint8(i), 0, c.KQ+c.KP) {
			for _, v := range row.Coeffs {
				if v != 0 {
					t.Fatalf("slot %d row %d leaks a residue through ClearSlots", i, j)
				}
			}
		}
	}
	dirty(c, r)
	if &c.slots[3].rows[2].Coeffs[0] != resident {
		t.Fatal("ClearSlots dropped the row's storage; the memory file is meant to stay put")
	}

	// Accumulators: the relin and keyswitch programs accumulate into slots
	// they never initialize, so an accumulator the previous operation left
	// non-zero must accumulate from zero — through CMac and through the
	// CAdd Dst == A form the schedulers emit.
	q := c.Mods[:c.KQ]
	a, b := randRows(r, q, 64), randRows(r, q, 64)
	c.LoadSlotNTT(0, 0, a)
	c.LoadSlotNTT(1, 0, b)
	mustExec(t, c,
		Instr{Op: OpCMac, Dst: 2, A: 0, B: 1, Batch: BatchQ},
		Instr{Op: OpCAdd, Dst: 3, A: 3, B: 0, Batch: BatchQ})
	wantRows(t, "CMac into a stale row", c.ReadSlot(2, 0, c.KQ), rowWise(q, a, b, ring.Modulus.Mul))
	wantRows(t, "CAdd accumulating into a stale row", c.ReadSlot(3, 0, c.KQ), a)
	// What the instructions did not write still reads as zero.
	for _, v := range c.ReadSlot(2, c.KQ, c.KQ+1)[0].Coeffs {
		if v != 0 {
			t.Fatal("an unwritten row of a written slot leaks")
		}
	}
}

// TestAliasingTable runs every instruction form that may name one slot twice
// — and the accumulate-into-stale forms — from a new file and from a dirty
// one, against the schoolbook row result: correct, never silently wrong.
func TestAliasingTable(t *testing.T) {
	for _, dirtyFirst := range []bool{false, true} {
		c := testCoproc(t, 64)
		r := rand.New(rand.NewSource(22))
		if dirtyFirst {
			dirty(c, r)
		}
		q := c.Mods[:c.KQ]
		a, b := randRows(r, q, 64), randRows(r, q, 64)
		load := func() {
			c.LoadSlotNTT(0, 0, a)
			c.LoadSlotNTT(1, 0, b)
		}
		for _, tc := range []struct {
			name string
			in   Instr
			f    func(m ring.Modulus, x, y uint64) uint64
		}{
			{"CAdd Dst == A", Instr{Op: OpCAdd, Dst: 0, A: 0, B: 1}, ring.Modulus.Add},
			{"CAdd Dst == B", Instr{Op: OpCAdd, Dst: 1, A: 0, B: 1}, ring.Modulus.Add},
			{"CSub Dst == A", Instr{Op: OpCSub, Dst: 0, A: 0, B: 1}, ring.Modulus.Sub},
			{"CSub Dst == B", Instr{Op: OpCSub, Dst: 1, A: 0, B: 1}, ring.Modulus.Sub},
			{"CMul Dst == A", Instr{Op: OpCMul, Dst: 0, A: 0, B: 1}, ring.Modulus.Mul},
			{"CMul Dst == B", Instr{Op: OpCMul, Dst: 1, A: 0, B: 1}, ring.Modulus.Mul},
			{"CMul A == B == Dst", Instr{Op: OpCMul, Dst: 0, A: 0, B: 0},
				func(m ring.Modulus, x, _ uint64) uint64 { return m.Mul(x, x) }},
			{"CMac into a stale row", Instr{Op: OpCMac, Dst: 5, A: 0, B: 1}, ring.Modulus.Mul},
			{"CMac Dst == A", Instr{Op: OpCMac, Dst: 0, A: 0, B: 1},
				func(m ring.Modulus, x, y uint64) uint64 { return m.Add(x, m.Mul(x, y)) }},
		} {
			load()
			tc.in.Batch = BatchQ
			mustExec(t, c, tc.in)
			wantRows(t, tc.name, c.ReadSlot(tc.in.Dst, 0, c.KQ), rowWise(q, a, b, tc.f))
		}

		// Decomp with Dst == A: digit i is x_i·q̃_i mod q_i reduced into
		// every q row, the source row included.
		x := randRows(r, q, 64)
		const digit = 1
		c.LoadSlotCoeff(0, 0, x)
		mustExec(t, c, Instr{Op: OpDecomp, Dst: 0, A: 0, B: digit})
		want := make([]poly.Poly, c.KQ)
		for j := range want {
			want[j] = poly.NewPoly(q[j], 64)
			for i, v := range x[digit].Coeffs {
				want[j].Coeffs[i] = q[j].Reduce(q[digit].Mul(v, c.Basis.QTilde[digit]))
			}
		}
		wantRows(t, "Decomp Dst == A", c.ReadSlot(0, 0, c.KQ), want)

		// Scale with Dst == A against the same kernel run out of place.
		full := randRows(r, c.Mods, 64)
		scaled := poly.NewRNSPoly(q, 64)
		c.scaler.ScalePolyInto(poly.RNSPoly{Rows: full}, scaled)
		c.LoadSlotCoeff(0, 0, full)
		mustExec(t, c, Instr{Op: OpScale, Dst: 0, A: 0})
		wantRows(t, "Scale Dst == A", c.ReadSlot(0, 0, c.KQ), scaled.Rows)
		// Lift writes the p rows of its own slot in full.
		lifted := poly.NewRNSPoly(c.Mods[c.KQ:], 64)
		c.ext.LiftTargetsInto(poly.RNSPoly{Rows: x}, lifted.Rows)
		c.LoadSlotCoeff(6, 0, x)
		mustExec(t, c, Instr{Op: OpLift, A: 6})
		wantRows(t, "Lift over stale p rows", c.ReadSlot(6, c.KQ, c.KQ+c.KP), lifted.Rows)

		// Rescale with Dst == A, both batches, on the chain co-processor.
		ch := testChain(t, 64, 3)
		if dirtyFirst {
			dirty(ch, r)
		}
		for _, batch := range []Batch{BatchQ, BatchP} {
			hi := ch.KQ
			resc := ch.rescQ
			if batch == BatchP {
				hi, resc = ch.KQ+ch.KP, ch.rescP
			}
			in := randRows(r, ch.Mods[:hi], 64)
			out := poly.NewRNSPoly(ch.Mods[:hi-1], 64)
			resc.RescaleInto(nil, poly.RNSPoly{Rows: in}, out)
			ch.LoadSlotCoeff(0, 0, in)
			mustExec(t, ch, Instr{Op: OpRescale, Dst: 0, A: 0, Batch: batch})
			wantRows(t, "Rescale Dst == A", ch.ReadSlot(0, 0, hi-1), out.Rows)
		}
	}
}

// TestRefusedInstructionWritesNothing: an instruction that fails its operand
// check must not have marked a stale destination row as written.
func TestRefusedInstructionWritesNothing(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(23))
	dirty(c, r)
	q := c.Mods[:c.KQ]
	a := randRows(r, q, 64)
	c.LoadSlotNTT(0, 0, a)
	// Rows 0 and 1 agree; row 2 of B is in the other domain.
	c.LoadSlotNTT(1, 0, a[:2])
	c.LoadSlotCoeff(1, 2, a[2:])
	if _, err := c.Exec(Instr{Op: OpCMul, Dst: 2, A: 0, B: 1, Batch: BatchQ}); err == nil {
		t.Fatal("domain mixing should be rejected")
	}
	for j, row := range c.ReadSlot(2, 0, c.KQ) {
		for _, v := range row.Coeffs {
			if v != 0 {
				t.Fatalf("refused CMul exposed stale data in its destination row %d", j)
			}
		}
	}
}

// TestLoadSlotRejectsBadRows: LoadSlot copies into a resident row, so a row
// of the wrong length (which a Clone never had to notice), the wrong modulus
// or past the row set is a scheduler bug and panics.
func TestLoadSlotRejectsBadRows(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(24))
	good := randRows(r, c.Mods[:1], 64)[0]
	for name, load := range map[string]func(){
		"short row":        func() { c.LoadSlotCoeff(0, 0, []poly.Poly{{Mod: good.Mod, Coeffs: good.Coeffs[:63]}}) },
		"long row":         func() { c.LoadSlotCoeff(0, 0, []poly.Poly{{Mod: good.Mod, Coeffs: make([]uint64, 65)}}) },
		"modulus mismatch": func() { c.LoadSlotCoeff(0, 1, []poly.Poly{good}) },
		"past the row set": func() { c.LoadSlotCoeff(0, c.KQ+c.KP, []poly.Poly{good}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LoadSlot accepted a %s", name)
				}
			}()
			load()
		}()
	}
}

// TestIntegrityRecomputesIntoStaleRow: the recovery snapshot of a wiped
// destination row is its empty tag alone; a kill into it must still be caught
// and recomputed to the right rows, and the stale data must not be restored
// as if it were the row's contents.
func TestIntegrityRecomputesIntoStaleRow(t *testing.T) {
	inj := faults.New(31)
	c, reg := guardedCoproc(t, inj)
	r := rand.New(rand.NewSource(25))
	dirty(c, r)
	q := c.Mods[:c.KQ]
	a, b := randRows(r, q, 64), randRows(r, q, 64)
	c.LoadSlotNTT(0, 0, a)
	c.LoadSlotNTT(1, 0, b)
	inj.Arm(faults.Spec{Class: faults.ClassRPAU, After: 0, Mode: faults.ModeKill})
	mustExec(t, c, Instr{Op: OpCMul, Dst: 2, A: 0, B: 1, Batch: BatchQ})
	if reg.Counter("hw_integrity_recompute_ok").Value() != 1 {
		t.Fatalf("kill not recomputed: %v", reg.Snapshot().Counters)
	}
	wantRows(t, "recomputed CMul", c.ReadSlot(2, 0, c.KQ), rowWise(q, a, b, ring.Modulus.Mul))
	if err := c.Scrub(); err != nil {
		t.Fatalf("post-recovery scrub: %v", err)
	}
	c.ClearSlots()
	if got := reg.Counter("hw_integrity_flush_detected").Value(); got != 0 {
		t.Fatalf("clean flush counted %d detections", got)
	}
}
