package sched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ckks"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/sampler"
)

type ckksTestContext struct {
	p    *ckks.Params
	sk   *ckks.SecretKey
	rk   *ckks.RelinKey
	gk   *ckks.GaloisKey
	enc  *ckks.Encoder
	encr *ckks.Encryptor
	ev   *ckks.Evaluator
	hw   *CKKSScheduler
}

func newCKKSTestContext(t *testing.T) *ckksTestContext {
	t.Helper()
	return newCKKSTestContextConfig(t, ckks.TestConfig())
}

func newCKKSTestContextConfig(t *testing.T, cfg ckks.Config) *ckksTestContext {
	t.Helper()
	p, err := ckks.NewParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(42)
	kg := ckks.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
	return &ckksTestContext{
		p:    p,
		sk:   sk,
		rk:   rk,
		gk:   gk,
		enc:  ckks.NewEncoder(p),
		encr: ckks.NewEncryptor(p, pk, prng),
		ev:   ckks.NewEvaluator(p),
		hw:   NewCKKS(p, hwsim.DefaultTiming()),
	}
}

func (c *ckksTestContext) encryptRange(t *testing.T, seedStep int) *ckks.Ciphertext {
	t.Helper()
	vals := make([]float64, c.p.Slots())
	for i := range vals {
		vals[i] = float64((seedStep*i+1)%19)/10.0 - 0.9
	}
	pt, err := c.enc.Encode(vals, c.p.MaxLevel(), c.p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return c.encr.Encrypt(pt)
}

func sameCiphertext(t *testing.T, name string, sw, hw *ckks.Ciphertext) {
	t.Helper()
	if len(sw.Els) != len(hw.Els) {
		t.Fatalf("%s: element count %d vs %d", name, len(sw.Els), len(hw.Els))
	}
	if sw.Scale != hw.Scale {
		t.Fatalf("%s: scale %g vs %g", name, sw.Scale, hw.Scale)
	}
	for e := range sw.Els {
		if len(sw.Els[e].Rows) != len(hw.Els[e].Rows) {
			t.Fatalf("%s: element %d row count differs", name, e)
		}
		for j := range sw.Els[e].Rows {
			for i, v := range sw.Els[e].Rows[j].Coeffs {
				if hw.Els[e].Rows[j].Coeffs[i] != v {
					t.Fatalf("%s: element %d row %d coeff %d: sw %d, hw %d",
						name, e, j, i, v, hw.Els[e].Rows[j].Coeffs[i])
				}
			}
		}
	}
}

// The chain co-processor must be bit-exact against the software evaluator on
// every CKKS operation — same kernels, different dataflow.
func TestCKKSHardwareSoftwareParity(t *testing.T) {
	c := newCKKSTestContext(t)
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)

	swSum := c.ev.Add(a, b)
	hwSum, rep, err := c.hw.Add(a, b)
	if err != nil {
		t.Fatalf("hw add: %v", err)
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("hw add charged no cycles")
	}
	sameCiphertext(t, "add", swSum, hwSum)

	swProd := c.ev.Rescale(c.ev.Mul(a, b, c.rk))
	hwProd, rep, err := c.hw.MulRescale(a, b, c.rk)
	if err != nil {
		t.Fatalf("hw mul: %v", err)
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("hw mul charged no cycles")
	}
	sameCiphertext(t, "mul+rescale", swProd, hwProd)

	swRot := c.ev.Rotate(a, 1, c.gk)
	hwRot, _, err := c.hw.Rotate(a, 1, c.gk)
	if err != nil {
		t.Fatalf("hw rotate: %v", err)
	}
	sameCiphertext(t, "rotate", swRot, hwRot)
}

// Descending the chain moves the one chain co-processor's level register at
// each step; parity must hold at every level, not just the top.
func TestCKKSHardwareChainDescent(t *testing.T) {
	c := newCKKSTestContext(t)
	sw := c.encryptRange(t, 3)
	hw := sw.Clone()
	for sw.Level() >= 1 {
		swNext := c.ev.Rescale(c.ev.Mul(sw, sw, c.rk))
		hwNext, _, err := c.hw.MulRescale(hw, hw, c.rk)
		if err != nil {
			t.Fatalf("hw mul at level %d: %v", hw.Level(), err)
		}
		sameCiphertext(t, "descent", swNext, hwNext)
		sw, hw = swNext, hwNext
	}
}

// One chain co-processor serves the whole chain: Add, Rotate and MulRescale
// from the top of the paper chain down to level 0 and back to the top, with
// the checker off and on, never replace the scheduler's co-processor, stay
// bit-identical to the software evaluator, and report exactly what a
// brand-new scheduler reports for the same operation — the level register
// leaves nothing behind that the next level could see or be charged for.
func TestCKKSOneCoprocessorServesTheChain(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	c := newCKKSTestContextConfig(t, ckks.PaperConfig())
	type run func(s *CKKSScheduler) (*ckks.Ciphertext, Report, error)
	for _, checked := range []bool{false, true} {
		newSched := func() *CKKSScheduler {
			s := NewCKKS(c.p, hwsim.DefaultTiming())
			if checked {
				if err := s.EnableIntegrity(11); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
		hw := newSched()
		cp := hw.C
		step := func(name string, sw *ckks.Ciphertext, op run) *ckks.Ciphertext {
			t.Helper()
			label := fmt.Sprintf("checked=%v, %s", checked, name)
			got, rep, err := op(hw)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if hw.C != cp {
				t.Fatalf("%s: the scheduler's co-processor was replaced", label)
			}
			sameCiphertext(t, label, sw, got)
			if _, want, err := op(newSched()); err != nil || rep != want {
				t.Fatalf("%s: report %+v, a new scheduler's %+v (%v)", label, rep, want, err)
			}
			return got
		}
		add := func(x *ckks.Ciphertext) {
			step(fmt.Sprintf("Add at level %d", x.Level()), c.ev.Add(x, x),
				func(s *CKKSScheduler) (*ckks.Ciphertext, Report, error) { return s.Add(x, x) })
		}
		// all runs the three operations at x's level and returns the product,
		// one level down.
		rotate := func(x *ckks.Ciphertext) {
			step(fmt.Sprintf("Rotate at level %d", x.Level()), c.ev.Rotate(x, 1, c.gk),
				func(s *CKKSScheduler) (*ckks.Ciphertext, Report, error) { return s.Rotate(x, 1, c.gk) })
		}
		all := func(x *ckks.Ciphertext) *ckks.Ciphertext {
			add(x)
			rotate(x)
			return step(fmt.Sprintf("MulRescale at level %d", x.Level()), c.ev.Rescale(c.ev.Mul(x, x, c.rk)),
				func(s *CKKSScheduler) (*ckks.Ciphertext, Report, error) { return s.MulRescale(x, x, c.rk) })
		}
		// Down the chain, Add and Rotate at level 0 (nothing left to
		// rescale into), and back to the top.
		ct := c.encryptRange(t, 3)
		for ct.Level() > 0 {
			ct = all(ct)
		}
		add(ct)
		rotate(ct)
		all(c.encryptRange(t, 7))
	}
}

// The hardware result must also decode correctly — parity against software
// plus an end-to-end slot check at depth 2.
func TestCKKSHardwareDecodes(t *testing.T) {
	c := newCKKSTestContext(t)
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
	prod, _, err := c.hw.MulRescale(a, b, c.rk)
	if err != nil {
		t.Fatal(err)
	}
	dec := ckks.NewDecryptor(c.p, c.sk)
	got := c.enc.Decode(dec.Decrypt(prod))
	for i := 0; i < c.p.Slots(); i++ {
		va := float64((3*i+1)%19)/10.0 - 0.9
		vb := float64((7*i+1)%19)/10.0 - 0.9
		want := va * vb
		if d := got[i] - want; d > 1e-3 || d < -1e-3 {
			t.Fatalf("slot %d: decoded %g, want %g", i, got[i], want)
		}
	}
}

// The Rescale instruction's cycle accounting: two streaming passes through
// the coefficient-wise datapath, plus dispatch.
func TestCKKSRescaleCycles(t *testing.T) {
	c := newCKKSTestContext(t)
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
	c.hw.ResetStats()
	if _, _, err := c.hw.MulRescale(a, b, c.rk); err != nil {
		t.Fatal(err)
	}
	st, ok := c.hw.Stats.PerOp[hwsim.OpRescale]
	if !ok {
		t.Fatal("no Rescale instructions retired")
	}
	// 2 ModDown + 2 element rescales.
	if st.Calls != 4 {
		t.Fatalf("Rescale retired %d times, want 4", st.Calls)
	}
	timing := hwsim.DefaultTiming()
	want := hwsim.Cycles(2*(c.p.N()/2+timing.ButterflyPipelineDepth) + timing.InstrDispatchCycles)
	if got := st.PerCall(); got != want {
		t.Fatalf("Rescale cycles/call = %d, want %d", got, want)
	}
}

// The CKKS sibling of TestPaperSetMulCycles: Mul+Rescale from the top of the
// chain at n = 4096 costs exactly 801,134 cycles on the chain co-processor
// (compute plus per-digit key streaming), and stays bit-exact at that size.
func TestCKKSPaperSetMulRescaleCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	c := newCKKSTestContextConfig(t, ckks.PaperConfig())
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
	hw, rep, err := c.hw.MulRescale(a, b, c.rk)
	if err != nil {
		t.Fatal(err)
	}
	sameCiphertext(t, "paper mul+rescale", c.ev.Rescale(c.ev.Mul(a, b, c.rk)), hw)
	if rep.ComputeCycles != 801134 {
		t.Fatalf("paper-set CKKS Mul+Rescale: %d cycles, pinned 801134", rep.ComputeCycles)
	}
}

// The CKKS sibling of TestMulMemoryHighWater. With one slot map under both
// schemes the liveness auditor follows the CKKS programs too: a MulRescale
// peaks inside the key switch, when c0, c1, c2 (ℓ+1 chain rows each) are
// live beside the digit, the key component, the product scratch and the two
// accumulators (ℓ+2 extended rows each) — 8(ℓ+1)+5 residue rows, 53 from the
// top of the paper set's chain, inside the 66 buffers of the resource model.
func TestCKKSMulMemoryHighWater(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	c := newCKKSTestContextConfig(t, ckks.PaperConfig())
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
	if _, _, err := c.hw.MulRescale(a, b, c.rk); err != nil {
		t.Fatal(err)
	}
	k := a.Level() + 1
	if got, want := c.hw.ResiduePeak(), 8*k+5; got != want || got != 53 {
		t.Fatalf("residue high-water %d, want %d = 53 (three chain polynomials + five extended scratch)", got, want)
	}
	if cfg := hwsim.PaperResourceConfig(); c.hw.ResiduePeak() > cfg.MemFileSlots {
		t.Fatalf("paper-set peak %d exceeds the modeled memory file (%d slots)", c.hw.ResiduePeak(), cfg.MemFileSlots)
	}
	// Rotate and Add stay below it, and the audit restarts per operation.
	if _, _, err := c.hw.Rotate(a, 1, c.gk); err != nil {
		t.Fatal(err)
	}
	if got, want := c.hw.ResiduePeak(), 7*k+5; got != want {
		t.Fatalf("rotate high-water %d, want %d (two chain polynomials + five extended scratch)", got, want)
	}
	if _, _, err := c.hw.Add(a, b); err != nil {
		t.Fatal(err)
	}
	if got, want := c.hw.ResiduePeak(), 6*k; got != want {
		t.Fatalf("add high-water %d, want %d (four operands + two sums)", got, want)
	}
}

// The CKKS sibling of trace_test.go's attribution check, on the scheduler's
// own trace: with Record set, every instruction and every DMA step of the
// three operations is in Trace, so the recorded cycles add up exactly to
// what the ledger charged — and the trace feeds the same overlap analysis as
// a BFV one.
func TestCKKSTraceSumsToTotal(t *testing.T) {
	c := newCKKSTestContext(t)
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
	c.hw.Record = true
	ops := map[string]func() error{
		"add":         func() error { _, _, err := c.hw.Add(a, b); return err },
		"mul+rescale": func() error { _, _, err := c.hw.MulRescale(a, b, c.rk); return err },
		"rotate":      func() error { _, _, err := c.hw.Rotate(a, 1, c.gk); return err },
	}
	for name, op := range ops {
		c.hw.Trace = c.hw.Trace[:0]
		before := c.hw.Stats.Total
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum hwsim.Cycles
		units := map[Unit]bool{}
		for _, task := range c.hw.Trace {
			sum += task.Cycles
			units[task.Unit] = true
		}
		if delta := c.hw.Stats.Total - before; sum != delta || sum == 0 {
			t.Errorf("%s: trace cycles sum to %d, Stats.Total moved by %d", name, sum, delta)
		}
		if !units[UnitRPAU] || !units[UnitDMA] {
			t.Errorf("%s: trace covers units %v, want RPAU and DMA steps", name, units)
		}
		if an := AnalyzeOverlap(c.hw.Trace); an.Sequential != sum || an.Overlapped > an.Sequential {
			t.Errorf("%s: overlap analysis sequential %d / overlapped %d over a %d-cycle trace",
				name, an.Sequential, an.Overlapped, sum)
		}
	}
}

// One top-level Galois key serves a rotation at every level, level 0
// included: the scheduler's result is bit-identical to the software
// evaluator's and decodes to the rotated slots. A wrong Galois element and a
// ciphertext above the chain still get typed errors.
func TestCKKSRotateAtEveryLevel(t *testing.T) {
	c := newCKKSTestContext(t)
	dec := ckks.NewDecryptor(c.p, c.sk)
	fresh := c.encryptRange(t, 3)
	want := c.enc.Decode(dec.Decrypt(fresh))
	for level := c.p.MaxLevel(); level >= 0; level-- {
		x := fresh
		if level < fresh.Level() {
			x = c.ev.DropLevel(fresh, level)
		}
		hw, _, err := c.hw.Rotate(x, 1, c.gk)
		if err != nil {
			t.Fatalf("rotate at level %d: %v", level, err)
		}
		sameCiphertext(t, fmt.Sprintf("rotate at level %d", level), c.ev.Rotate(x, 1, c.gk), hw)
		got := c.enc.Decode(dec.Decrypt(hw))
		maxErr := 0.0
		for i := range got {
			maxErr = max(maxErr, math.Abs(got[i]-want[(i+1)%len(want)]))
		}
		t.Logf("level %d: max slot error %.2g", level, maxErr)
		if maxErr > 1e-3 {
			t.Fatalf("level %d: rotated slots off by %g", level, maxErr)
		}
	}
	if _, _, err := c.hw.Rotate(fresh, 2, c.gk); err == nil {
		t.Fatal("rotation by 2 served with the shift-1 key")
	}
	above := &ckks.Ciphertext{Scale: fresh.Scale}
	for range 2 {
		above.Els = append(above.Els, poly.NewRNSPoly(c.p.AllMods, c.p.N()))
	}
	if _, _, err := c.hw.Rotate(above, 1, c.gk); err == nil {
		t.Fatalf("rotation at level %d, above the chain, was served", above.Level())
	}
}
