package core

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

func testAccel(t testing.TB, variant hwsim.Variant) (*Accelerator, *fv.Params) {
	t.Helper()
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(params, variant, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a, params
}

func TestAcceleratorAddMul(t *testing.T) {
	a, p := testAccel(t, hwsim.VariantHPS)
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

	sum, repAdd, err := a.Add(cx, cy)
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

	prod, repMul, err := a.Mul(cx, cy, rk)
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

func TestTraditionalVariantSlower(t *testing.T) {
	p, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(3)
	kg := fv.NewKeyGenerator(p, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rkHPS := kg.GenRelinKey(sk, fv.HPS, 0, 0)
	rkTrad := kg.GenRelinKey(sk, fv.Traditional, p.Cfg.RelinLogW, p.Cfg.RelinDepth)
	enc := fv.NewEncryptor(p, pk, prng)
	ct := enc.Encrypt(fv.NewPlaintext(p))

	fast, err := New(p, hwsim.VariantHPS, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(p, hwsim.VariantTraditional, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, repFast, err := fast.Mul(ct, ct, rkHPS)
	if err != nil {
		t.Fatal(err)
	}
	_, repSlow, err := slow.Mul(ct, ct, rkTrad)
	if err != nil {
		t.Fatal(err)
	}
	// The traditional lift/scale dominates (paper Sec. VI-C: Mult < 2x
	// slower overall, lift/scale themselves ≫ slower).
	if repSlow.ComputeCycles <= repFast.ComputeCycles {
		t.Fatalf("traditional (%d) should be slower than HPS (%d)",
			repSlow.ComputeCycles, repFast.ComputeCycles)
	}
}

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
	timing := hwsim.DefaultTiming()
	constructors := []struct {
		name  string
		build func(coprocs int) (served bool, err error)
	}{
		{"New", func(n int) (bool, error) { a, err := New(p, hwsim.VariantHPS, n); return a != nil, err }},
		{"NewWithTiming", func(n int) (bool, error) {
			a, err := NewWithTiming(p, hwsim.VariantHPS, n, timing)
			return a != nil, err
		}},
		{"NewCKKS", func(n int) (bool, error) { a, err := NewCKKS(cp, n); return a != nil, err }},
		{"NewCKKSWithTiming", func(n int) (bool, error) { a, err := NewCKKSWithTiming(cp, n, timing); return a != nil, err }},
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

// TestTransferAccountingSeesCalibration: the operand, result and key-stream
// rows of a Report are computed under the timing the accelerator was built
// with. They used to be rebuilt from hwsim.DefaultTiming(), so a calibrated
// DMA changed what the co-processor ran on and nothing the report said.
func TestTransferAccountingSeesCalibration(t *testing.T) {
	slow := hwsim.DefaultTiming()
	slow.DMASetupSeconds *= 2
	keyBytes := 1 << 20

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
		a, err := NewWithTiming(p, hwsim.VariantHPS, 1, timing)
		if err != nil {
			t.Fatal(err)
		}
		if _, fvReps[i], err = a.Add(ct, ct); err != nil {
			t.Fatal(err)
		}
		fvKeys[i] = a.KeyStreamCycles(keyBytes)
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
		a, err := NewCKKSWithTiming(cp, 1, timing)
		if err != nil {
			t.Fatal(err)
		}
		if _, ckReps[i], err = a.Add(cct, cct); err != nil {
			t.Fatal(err)
		}
		ckKeys[i] = a.KeyStreamCycles(keyBytes)
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
