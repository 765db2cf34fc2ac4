package hwsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ckks"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/ring"
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

// testChain builds the chain co-processor of a CKKS parameter set with kq
// chain primes at ring degree n, its level register at the top.
func testChain(t testing.TB, n, kq int) *Coprocessor {
	t.Helper()
	p, err := ckks.NewParams(ckks.Config{N: n, LogScale: 30, QCount: kq, PrimeBits: 30, Sigma: 3.2})
	if err != nil {
		t.Fatal(err)
	}
	return NewCoprocessorChain(Chain{Mods: p.KSMods, NTT: p.TrKS, Basis: p.BasisLevel[p.MaxLevel()],
		Rescale: p.Rescaler, ModDown: p.RescalerKS}, n, nil, DefaultTiming(), 8)
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
		for j, row := range readSlot(c, uint8(i), 0, c.KQ+c.KP) {
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
	wantRows(t, "CMac into a stale row", readSlot(c, 2, 0, c.KQ), rowWise(q, a, b, ring.Modulus.Mul))
	wantRows(t, "CAdd accumulating into a stale row", readSlot(c, 3, 0, c.KQ), a)
	// What the instructions did not write still reads as zero.
	for _, v := range readSlot(c, 2, c.KQ, c.KQ+1)[0].Coeffs {
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
			wantRows(t, tc.name, readSlot(c, tc.in.Dst, 0, c.KQ), rowWise(q, a, b, tc.f))
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
		wantRows(t, "Decomp Dst == A", readSlot(c, 0, 0, c.KQ), want)

		// Scale with Dst == A against the same kernel run out of place.
		full := randRows(r, c.Mods, 64)
		scaled := poly.NewRNSPoly(q, 64)
		c.scaler.ScalePolyInto(poly.RNSPoly{Rows: full}, scaled)
		c.LoadSlotCoeff(0, 0, full)
		mustExec(t, c, Instr{Op: OpScale, Dst: 0, A: 0})
		wantRows(t, "Scale Dst == A", readSlot(c, 0, 0, c.KQ), scaled.Rows)
		// Lift writes the p rows of its own slot in full.
		lifted := poly.NewRNSPoly(c.Mods[c.KQ:], 64)
		c.ext.LiftTargetsInto(poly.RNSPoly{Rows: x}, lifted.Rows)
		c.LoadSlotCoeff(6, 0, x)
		mustExec(t, c, Instr{Op: OpLift, A: 6})
		wantRows(t, "Lift over stale p rows", readSlot(c, 6, c.KQ, c.KQ+c.KP), lifted.Rows)

		// Rescale with Dst == A, both batches, on the chain co-processor.
		ch := testChain(t, 64, 3)
		if dirtyFirst {
			dirty(ch, r)
		}
		for _, batch := range []Batch{BatchQ, BatchP} {
			hi := ch.KQ
			resc := ch.chain.Rescale
			if batch == BatchP {
				hi, resc = ch.KQ+ch.KP, ch.chain.ModDown[ch.level]
			}
			in := randRows(r, ch.Mods[:hi], 64)
			out := poly.NewRNSPoly(ch.Mods[:hi-1], 64)
			resc.RescaleInto(nil, poly.RNSPoly{Rows: in}, out)
			ch.LoadSlotCoeff(0, 0, in)
			mustExec(t, ch, Instr{Op: OpRescale, Dst: 0, A: 0, Batch: batch})
			wantRows(t, "Rescale Dst == A", readSlot(ch, 0, 0, hi-1), out.Rows)
		}
	}
}

// TestLevelSwitchIsolation is the same property across the chain
// co-processor's level register: one memory file serves every level, so a
// file whose every row — p* included — was filled at the top level and then
// switched down a level must compute what a brand-new co-processor at that
// level computes, with and without the checker. Row j held q_j's data and
// is now read under another prime; the switch clears the file first, so
// with the checker on it counts no flush detection of its own.
func TestLevelSwitchIsolation(t *testing.T) {
	for _, checked := range []bool{false, true} {
		used, fresh := testChain(t, 64, 4), testChain(t, 64, 4)
		reg := obs.NewRegistry()
		if checked {
			for _, c := range []*Coprocessor{used, fresh} {
				if err := c.EnableIntegrity(9); err != nil {
					t.Fatal(err)
				}
			}
			used.SetMetrics(reg)
		}
		r := rand.New(rand.NewSource(26))
		for i := range used.slots {
			used.LoadSlot(uint8(i), 0, randRows(r, used.Mods, used.N), domNTT)
		}
		level := used.level - 1
		for _, c := range []*Coprocessor{used, fresh} {
			if err := c.SetLevel(level); err != nil {
				t.Fatal(err)
			}
		}
		if got := reg.Counter("hw_integrity_flush_detected").Value(); got != 0 {
			t.Fatalf("checked=%v: the level switch counted %d flush detections", checked, got)
		}

		// x and y over the level's chain rows, z over its whole row set.
		x, y := randRows(r, used.Mods[:used.KQ], 64), randRows(r, used.Mods[:used.KQ], 64)
		z := randRows(r, used.Mods, 64)
		prog := []Instr{
			{Op: OpNTT, A: 0, Batch: BatchQ},
			{Op: OpNTT, A: 1, Batch: BatchQ},
			{Op: OpCMul, Dst: 3, A: 0, B: 1, Batch: BatchQ},
			{Op: OpDecomp, Dst: 4, A: 2, B: 1},
			{Op: OpRescale, Dst: 5, A: 2, Batch: BatchQ},
			{Op: OpRescale, Dst: 6, A: 2, Batch: BatchP},
			{Op: OpNTT, A: 7, Batch: BatchQ},
			{Op: OpNTT, A: 7, Batch: BatchP},
		}
		for _, c := range []*Coprocessor{used, fresh} {
			c.LoadSlotCoeff(0, 0, x)
			c.LoadSlotCoeff(1, 0, y)
			c.LoadSlotCoeff(2, 0, z)
			c.LoadSlotCoeff(7, 0, z)
			mustExec(t, c, prog...)
			if err := c.Scrub(); err != nil {
				t.Fatalf("checked=%v: %v", checked, err)
			}
		}
		k := used.KQ
		for _, out := range []struct {
			name string
			slot uint8
			rows int
		}{{"NTT", 0, k}, {"CMul", 3, k}, {"extended Decomp", 4, k + 1},
			{"Rescale Q", 5, k - 1}, {"Rescale P (ModDown)", 6, k}, {"NTT over p*", 7, k + 1}} {
			wantRows(t, fmt.Sprintf("checked=%v %s after a level switch", checked, out.name),
				readSlot(used, out.slot, 0, out.rows), readSlot(fresh, out.slot, 0, out.rows))
		}
		for name, v := range reg.Snapshot().Counters {
			if v != 0 {
				t.Fatalf("checked=%v: %s = %d on a clean run", checked, name, v)
			}
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
	for j, row := range readSlot(c, 2, 0, c.KQ) {
		for _, v := range row.Coeffs {
			if v != 0 {
				t.Fatalf("refused CMul exposed stale data in its destination row %d", j)
			}
		}
	}
}

// TestLoadSlotRejectsBadRows: LoadSlot copies into a resident row, so a row
// of the wrong length (which a Clone never had to notice), the wrong modulus
// or past the row set is a scheduler bug and panics — and so is such a row
// bound as a view or a result, which an instruction would read or write
// under the slot's prime.
func TestLoadSlotRejectsBadRows(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(24))
	good := randRows(r, c.Mods[:1], 64)[0]
	for _, place := range []struct {
		name string
		f    func(lo int, rows []poly.Poly)
	}{
		{"LoadSlot", func(lo int, rows []poly.Poly) { c.LoadSlotCoeff(0, lo, rows) }},
		{"ViewSlot", func(lo int, rows []poly.Poly) { c.ViewSlot(0, append(make([]poly.Poly, lo), rows...)) }},
		{"BindSlot", func(lo int, rows []poly.Poly) { c.BindSlot(0, append(make([]poly.Poly, lo), rows...)) }},
	} {
		for name, load := range map[string]func(){
			"short row":        func() { place.f(0, []poly.Poly{{Mod: good.Mod, Coeffs: good.Coeffs[:63]}}) },
			"long row":         func() { place.f(0, []poly.Poly{{Mod: good.Mod, Coeffs: make([]uint64, 65)}}) },
			"modulus mismatch": func() { place.f(1, []poly.Poly{good}) },
			"past the row set": func() { place.f(c.KQ+c.KP, []poly.Poly{good}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted a %s", place.name, name)
					}
				}()
				load()
			}()
		}
		c.ClearSlots()
	}
}

// TestViewsAreReadOnly: on the fused path an operand slot is a view of the
// caller's rows. Every instruction that writes a view row — in place (NTT),
// with Dst == A (CMul, CMac, Decomp, Scale, Rescale) or beside it (Lift's p
// rows) — computes what it computes from a loaded copy, and the caller's
// rows come back byte for byte.
func TestViewsAreReadOnly(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	c, ref := testCoproc(t, 64), testCoproc(t, 64)
	ch, chRef := testChain(t, 64, 3), testChain(t, 64, 3)
	x := randRows(r, c.Mods[:c.KQ], 64)
	chx := randRows(r, ch.Mods[:ch.KQ], 64)
	for _, tc := range []struct {
		name   string
		c, ref *Coprocessor
		src    []poly.Poly
		prog   []Instr
		rows   int
	}{
		{"NTT in place", c, ref, x, []Instr{{Op: OpNTT, A: 0, Batch: BatchQ}}, c.KQ},
		{"CMul Dst == A", c, ref, x, []Instr{{Op: OpCMul, Dst: 0, A: 0, B: 1, Batch: BatchQ}}, c.KQ},
		{"CMac Dst == A", c, ref, x, []Instr{{Op: OpCMac, Dst: 0, A: 0, B: 1, Batch: BatchQ}}, c.KQ},
		{"Decomp Dst == A", c, ref, x, []Instr{{Op: OpDecomp, Dst: 0, A: 0, B: 1}}, c.KQ},
		{"Lift", c, ref, x, []Instr{{Op: OpLift, A: 0}}, c.KQ + c.KP},
		{"Lift then Scale Dst == A", c, ref, x, []Instr{{Op: OpLift, A: 0}, {Op: OpScale, Dst: 0, A: 0}}, c.KQ},
		{"Rescale Dst == A", ch, chRef, chx, []Instr{{Op: OpRescale, Dst: 0, A: 0, Batch: BatchQ}}, ch.KQ - 1},
	} {
		view := cloneRows(tc.src)
		y := randRows(r, tc.c.Mods[:len(tc.src)], 64)
		for _, m := range []*Coprocessor{tc.c, tc.ref} {
			m.ClearSlots()
			m.LoadSlotCoeff(1, 0, y)
		}
		tc.c.ViewSlot(0, view)
		tc.ref.LoadSlotCoeff(0, 0, tc.src)
		mustExec(t, tc.c, tc.prog...)
		mustExec(t, tc.ref, tc.prog...)
		wantRows(t, tc.name, readSlot(tc.c, 0, 0, tc.rows), readSlot(tc.ref, 0, 0, tc.rows))
		wantRows(t, tc.name+": the viewed rows", view, tc.src)
	}
}

func cloneRows(rows []poly.Poly) []poly.Poly {
	out := make([]poly.Poly, len(rows))
	for j, r := range rows {
		out[j] = poly.Poly{Mod: r.Mod, Coeffs: append([]uint64(nil), r.Coeffs...)}
	}
	return out
}

// TestBoundResultComputedInPlace: a result slot bound to the caller's rows
// is written there, and ReadSlotInto of those same rows moves nothing — a
// coefficient the caller changes after the instruction survives the
// readback — while a readback into other rows still copies.
func TestBoundResultComputedInPlace(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(28))
	dirty(c, r)
	q := c.Mods[:c.KQ]
	a, b := randRows(r, q, 64), randRows(r, q, 64)
	c.ViewSlot(0, a)
	c.ViewSlot(1, b)
	out := randRows(r, q, 64)
	c.BindSlot(2, out)
	mustExec(t, c, Instr{Op: OpCAdd, Dst: 2, A: 0, B: 1, Batch: BatchQ})
	sum := rowWise(q, a, b, ring.Modulus.Add)
	wantRows(t, "CAdd into a bound result", out, sum)
	out[0].Coeffs[5]++
	c.ReadSlotInto(2, 0, out)
	if out[0].Coeffs[5] != sum[0].Coeffs[5]+1 {
		t.Fatal("ReadSlotInto copied into the rows the slot is bound to")
	}
	other := randRows(r, q, 64)
	c.ReadSlotInto(2, 0, other)
	wantRows(t, "ReadSlotInto into other rows", other, out)

	// The guarded path binds nothing: the result lands in the slot's own
	// storage and only the readback reaches the caller.
	g, _ := guardedCoproc(t, nil)
	g.ViewSlot(0, a)
	g.ViewSlot(1, b)
	mine := randRows(r, q, 64)
	before := cloneRows(mine)
	g.BindSlot(2, mine)
	mustExec(t, g, Instr{Op: OpCAdd, Dst: 2, A: 0, B: 1, Batch: BatchQ})
	wantRows(t, "guarded BindSlot", mine, before)
	wantRows(t, "guarded readback", readSlot(g, 2, 0, g.KQ), sum)
}

// TestClearDropsBindings: after ClearSlots, and after the chain
// co-processor's SetLevel, no slot row references caller memory — every row
// is the slot's own storage again, and reads as zero.
func TestClearDropsBindings(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, clearing := range []struct {
		name string
		c    *Coprocessor
		wipe func(c *Coprocessor)
	}{
		{"ClearSlots", testCoproc(t, 64), (*Coprocessor).ClearSlots},
		{"SetLevel", testChain(t, 64, 3), func(c *Coprocessor) {
			if err := c.SetLevel(c.level - 1); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		c := clearing.c
		q := c.Mods[:c.KQ]
		a, out := randRows(r, q, 64), randRows(r, q, 64)
		c.ViewSlot(0, a)
		c.BindSlot(1, out)
		clearing.wipe(c)
		caller := map[*uint64]bool{}
		for _, row := range append(a, out...) {
			caller[&row.Coeffs[0]] = true
		}
		for i := range c.slots {
			for j, row := range c.slots[i].rows {
				if len(row.Coeffs) > 0 && caller[&row.Coeffs[0]] {
					t.Fatalf("%s: slot %d row %d still references caller memory", clearing.name, i, j)
				}
			}
		}
		for _, row := range readSlot(c, 0, 0, c.KQ) {
			for _, v := range row.Coeffs {
				if v != 0 {
					t.Fatalf("%s: a dropped view reads as data", clearing.name)
				}
			}
		}
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
	wantRows(t, "recomputed CMul", readSlot(c, 2, 0, c.KQ), rowWise(q, a, b, ring.Modulus.Mul))
	if err := c.Scrub(); err != nil {
		t.Fatalf("post-recovery scrub: %v", err)
	}
	c.ClearSlots()
	if got := reg.Counter("hw_integrity_flush_detected").Value(); got != 0 {
		t.Fatalf("clean flush counted %d detections", got)
	}
}
