package sched

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

func TestAcceleratorAddMul(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(1)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	dec := fv.NewDecryptor(p, sk)
	ev := fv.NewEvaluator(p)

	x := fv.NewPlaintext(p)
	y := fv.NewPlaintext(p)
	x.Coeffs[0], y.Coeffs[0] = 11, 12
	cx, cy := enc.Encrypt(x), enc.Encrypt(y)

	sum, repAdd, err := s.Add(cx, cy)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(ev.Add(cx, cy)) {
		t.Fatal("accelerated Add != software Add")
	}
	if got := dec.Decrypt(sum).Coeffs[0]; got != 23 {
		t.Fatalf("11+12 = %d", got)
	}
	if repAdd.ComputeCycles == 0 || repAdd.SendCycles == 0 || repAdd.ReceiveCycles == 0 {
		t.Fatalf("incomplete Add report: %+v", repAdd)
	}

	prod, repMul, err := s.Mul(cx, cy, rk)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(ev.Mul(cx, cy, rk)) {
		t.Fatal("accelerated Mul != software Mul")
	}
	if got := dec.Decrypt(prod).Coeffs[0]; got != 132 {
		t.Fatalf("11·12 = %d", got)
	}
	// Mult must dominate Add by orders of magnitude (paper: 4.458 ms vs
	// 0.026 ms).
	if repMul.ComputeCycles < 20*repAdd.ComputeCycles {
		t.Fatalf("Mult (%d cycles) should be ≫ Add (%d cycles)",
			repMul.ComputeCycles, repAdd.ComputeCycles)
	}
	if repMul.TotalSeconds() <= repMul.ComputeSeconds() {
		t.Fatal("total must include transfers")
	}
	if repMul.ArmCycles() != repMul.ComputeCycles.ArmCycles() {
		t.Fatal("Arm cycle view inconsistent")
	}
}

func TestCKKSAcceleratorEndToEnd(t *testing.T) {
	c := newCKKSTestContext(t)
	p := c.p
	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = float64(i%11)/10.0 - 0.5
	}
	pt, err := c.enc.Encode(vals, p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := c.encr.Encrypt(pt)

	sum, rep, err := c.hw.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeCycles == 0 || rep.SendCycles == 0 || rep.ReceiveCycles == 0 {
		t.Fatalf("add report has zero rows: %+v", rep)
	}
	sameCiphertext(t, "add", c.ev.Add(ct, ct), sum)

	prod, rep, err := c.hw.MulRescale(ct, ct, c.rk)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Level() != ct.Level()-1 {
		t.Fatalf("Mul result at level %d, want %d", prod.Level(), ct.Level()-1)
	}
	sameCiphertext(t, "mul+rescale", c.ev.Rescale(c.ev.Mul(ct, ct, c.rk)), prod)
	if rep.ComputeCycles == 0 {
		t.Fatal("mul report charged no compute cycles")
	}

	rot, _, err := c.hw.Rotate(ct, 1, c.gk)
	if err != nil {
		t.Fatal(err)
	}
	sameCiphertext(t, "rotate", c.ev.Rotate(ct, 1, c.gk), rot)

	if c.hw.Stats.Total == 0 {
		t.Fatal("shared stats ledger stayed empty")
	}
}

// TestTransferAccountingSeesCalibration: the operand and result rows of a
// Report, and the key stream a serving layer charges off the co-processor's
// DMA engine, follow the timing the co-processor was built with.
func TestTransferAccountingSeesCalibration(t *testing.T) {
	slow := hwsim.DefaultTiming()
	slow.DMASetupSeconds *= 2
	keyStream := hwsim.Transfer{Bytes: 1 << 20}

	p, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(1)
	_, pk, _ := fv.NewKeyGenerator(p, prng).GenKeys()
	ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
	var fvReps [2]Report
	var fvKeys [2]hwsim.Cycles
	for i, timing := range []hwsim.Timing{hwsim.DefaultTiming(), slow} {
		c, err := newCoprocessor(p, timing)
		if err != nil {
			t.Fatal(err)
		}
		if _, fvReps[i], err = New(p, c).Add(ct, ct); err != nil {
			t.Fatal(err)
		}
		fvKeys[i] = c.DMAEng.FPGACycles(keyStream)
	}

	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, cpk, _ := ckks.NewKeyGenerator(cp, prng).GenKeys()
	cpt, err := ckks.NewEncoder(cp).Encode([]float64{0.5}, cp.MaxLevel(), cp.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	cct := ckks.NewEncryptor(cp, cpk, prng).Encrypt(cpt)
	var ckReps [2]Report
	var ckKeys [2]hwsim.Cycles
	for i, timing := range []hwsim.Timing{hwsim.DefaultTiming(), slow} {
		s := NewCKKS(cp, timing)
		if _, ckReps[i], err = s.Add(cct, cct); err != nil {
			t.Fatal(err)
		}
		ckKeys[i] = s.C.DMAEng.FPGACycles(keyStream)
	}

	for _, tc := range []struct {
		name       string
		base, slow hwsim.Cycles
	}{
		{"BFV send", fvReps[0].SendCycles, fvReps[1].SendCycles},
		{"BFV receive", fvReps[0].ReceiveCycles, fvReps[1].ReceiveCycles},
		{"BFV key stream", fvKeys[0], fvKeys[1]},
		{"CKKS send", ckReps[0].SendCycles, ckReps[1].SendCycles},
		{"CKKS receive", ckReps[0].ReceiveCycles, ckReps[1].ReceiveCycles},
		{"CKKS key stream", ckKeys[0], ckKeys[1]},
	} {
		if tc.slow <= tc.base {
			t.Errorf("%s: %d cycles with the DMA set-up cost doubled, %d without", tc.name, tc.slow, tc.base)
		}
	}
}

// A BFV Rotate uploads one ciphertext — two polynomials — so its report
// charges a two-polynomial operand DMA, half of what Add and Mul pay for
// their two operands.
func TestRotateReportsOneCiphertextIn(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(21)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, 3)
	ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))

	_, rot, err := s.Rotate(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	_, mul, err := s.Mul(ct, ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	polyBytes := hwsim.PolyBytes(p.N(), p.QBasis.K())
	if want := s.C.DMAEng.FPGACycles(hwsim.Transfer{Bytes: 2 * polyBytes}); rot.SendCycles != want {
		t.Fatalf("Rotate SendCycles = %d, want %d (one ciphertext = two polynomials)", rot.SendCycles, want)
	}
	if want := s.C.DMAEng.FPGACycles(hwsim.Transfer{Bytes: 4 * polyBytes}); mul.SendCycles != want {
		t.Fatalf("Mul SendCycles = %d, want %d (two ciphertexts)", mul.SendCycles, want)
	}
	if rot.SendCycles >= mul.SendCycles {
		t.Fatalf("Rotate's operand DMA (%d cycles) is not smaller than Mul's (%d)", rot.SendCycles, mul.SendCycles)
	}
	if rot.ReceiveCycles != mul.ReceiveCycles {
		t.Fatalf("result DMA differs: Rotate %d, Mul %d (one ciphertext out either way)", rot.ReceiveCycles, mul.ReceiveCycles)
	}
}

// TestReportSumsToLedger: a report is read off the co-processor ledger, so
// Send + Compute + Receive is the ledger's move over the operation to the
// cycle, under both schemes — BFV Mul and Rotate included, whose result DMA
// used to stay off the ledger. Send and Receive are the DMA of the operand
// polynomials in (4 for Add and Mul, 2 for Rotate) and of the two result
// polynomials out, at the operand's and the result's row counts.
func TestReportSumsToLedger(t *testing.T) {
	check := func(t *testing.T, name string, ledger *hwsim.Stats, dma hwsim.DMA, n, polysIn, rowsIn, rowsOut int,
		op func() (Report, error)) {
		t.Helper()
		before := ledger.Total
		rep, err := op()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum, moved := rep.SendCycles+rep.ComputeCycles+rep.ReceiveCycles, ledger.Total-before; sum != moved {
			t.Errorf("%s: Send + Compute + Receive = %d, the ledger moved %d", name, sum, moved)
		}
		if want := dma.FPGACycles(hwsim.Transfer{Bytes: polysIn * hwsim.PolyBytes(n, rowsIn)}); rep.SendCycles != want {
			t.Errorf("%s: Send %d, want %d (%d polynomials of %d rows)", name, rep.SendCycles, want, polysIn, rowsIn)
		}
		if want := dma.FPGACycles(hwsim.Transfer{Bytes: 2 * hwsim.PolyBytes(n, rowsOut)}); rep.ReceiveCycles != want {
			t.Errorf("%s: Receive %d, want %d (2 polynomials of %d rows)", name, rep.ReceiveCycles, want, rowsOut)
		}
		if rep.KeyLoadCycles != 0 {
			t.Errorf("%s: the scheduler charged %d key-load cycles; that row is a serving layer's", name, rep.KeyLoadCycles)
		}
	}

	t.Run("bfv", func(t *testing.T) {
		p, s := setup(t)
		prng := sampler.NewPRNG(31)
		kg := fv.NewKeyGenerator(p, prng)
		sk, pk, rk := kg.GenKeys()
		gk := kg.GenGaloisKey(sk, 3)
		ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
		kq := p.QBasis.K()
		for _, op := range []struct {
			name    string
			polysIn int
			run     func() (Report, error)
		}{
			{"Add", 4, func() (Report, error) { _, rep, err := s.Add(ct, ct); return rep, err }},
			{"Mul", 4, func() (Report, error) { _, rep, err := s.Mul(ct, ct, rk); return rep, err }},
			{"Rotate", 2, func() (Report, error) { _, rep, err := s.Rotate(ct, gk); return rep, err }},
		} {
			check(t, op.name, s.C.Stats, s.C.DMAEng, p.N(), op.polysIn, kq, kq, op.run)
		}
	})
	t.Run("ckks", func(t *testing.T) {
		c := newCKKSTestContext(t)
		a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
		k := a.Level() + 1
		dma := hwsim.DMA{Timing: c.hw.Timing}
		for _, op := range []struct {
			name          string
			polysIn, rows int
			run           func() (Report, error)
		}{
			{"Add", 4, k, func() (Report, error) { _, rep, err := c.hw.Add(a, b); return rep, err }},
			{"MulRescale", 4, k - 1, func() (Report, error) { _, rep, err := c.hw.MulRescale(a, b, c.rk); return rep, err }},
			{"Rotate", 2, k, func() (Report, error) { _, rep, err := c.hw.Rotate(a, 1, c.gk); return rep, err }},
		} {
			check(t, op.name, c.hw.Stats, dma, c.p.N(), op.polysIn, k, op.rows, op.run)
		}
	})
}
