package sched

import (
	"testing"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

func setup(t testing.TB) (*fv.Params, *Scheduler) {
	t.Helper()
	return setupConfig(t, fv.TestConfig(257))
}

func setupConfig(t testing.TB, cfg fv.Config) (*fv.Params, *Scheduler) {
	t.Helper()
	p, err := fv.NewParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDefault(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestScheduledAddMatchesSoftware(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(1)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	dec := fv.NewDecryptor(p, sk)
	ev := fv.NewEvaluator(p)

	a := fv.NewPlaintext(p)
	b := fv.NewPlaintext(p)
	for i := range a.Coeffs {
		a.Coeffs[i] = uint64(i) % 257
		b.Coeffs[i] = uint64(2*i+1) % 257
	}
	ca, cb := enc.Encrypt(a), enc.Encrypt(b)

	got, rep, err := s.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.Add(ca, cb)
	if !got.Equal(want) {
		t.Fatal("co-processor Add != software Add")
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("Add consumed no cycles")
	}
	if pt := dec.Decrypt(got); !pt.Equal(dec.Decrypt(want)) {
		t.Fatal("decryption mismatch")
	}
	// Add issues exactly two coefficient-wise additions.
	if calls := s.C.Stats.PerOp[hwsim.OpCAdd].Calls; calls != 2 {
		t.Fatalf("Add used %d CADD instructions, want 2", calls)
	}
}

func TestScheduledMulMatchesSoftware(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(2)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	dec := fv.NewDecryptor(p, sk)
	ev := fv.NewEvaluator(p)

	a := fv.NewPlaintext(p)
	b := fv.NewPlaintext(p)
	a.Coeffs[0], a.Coeffs[1] = 6, 1
	b.Coeffs[0], b.Coeffs[2] = 7, 3
	ca, cb := enc.Encrypt(a), enc.Encrypt(b)

	got, rep, err := s.Mul(ca, cb, rk)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.Mul(ca, cb, rk)
	if !got.Equal(want) {
		t.Fatal("co-processor Mult != software Mult (bit-exact check)")
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("Mult consumed no cycles")
	}
	// (6+x)(7+3x²) = 42 + 7x + 18x² + 3x³.
	pt := dec.Decrypt(got)
	if pt.Coeffs[0] != 42 || pt.Coeffs[1] != 7 || pt.Coeffs[2] != 18 || pt.Coeffs[3] != 3 {
		t.Fatalf("decrypted product %v", pt.Coeffs[:5])
	}
}

func TestMulInstructionCountsMatchTableII(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(3)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	_ = sk
	enc := fv.NewEncryptor(p, pk, prng)
	ca := enc.Encrypt(fv.NewPlaintext(p))
	cb := enc.Encrypt(fv.NewPlaintext(p))

	s.C.ResetStats()
	if _, _, err := s.Mul(ca, cb, rk); err != nil {
		t.Fatal(err)
	}
	ell := p.QBasis.K() // 3 for the test set, 6 for the paper set

	// Counts parameterized by ℓ; with the paper's ℓ = 6 they reproduce
	// Table II exactly: NTT 14, INTT 8, CMUL 20, REARR+DECOMP 22, LIFT 4,
	// SCALE 3.
	wantCalls := map[hwsim.Op]int{
		hwsim.OpLift:   4,
		hwsim.OpScale:  3,
		hwsim.OpNTT:    8 + ell,
		hwsim.OpINTT:   6 + 2,
		hwsim.OpCMul:   8 + 2*ell,
		hwsim.OpCAdd:   2 + 2*ell + 2,
		hwsim.OpRearr:  8 + 6 + 2,
		hwsim.OpDecomp: ell,
	}
	for op, want := range wantCalls {
		got := 0
		if st, ok := s.C.Stats.PerOp[op]; ok {
			got = st.Calls
		}
		if got != want {
			t.Errorf("%v: %d calls, want %d", op, got, want)
		}
	}
	// Relin-key streaming: 2ℓ polynomial transfers plus the operand send
	// and the result receive.
	if s.C.Stats.TransferCalls != 2*ell+2 {
		t.Errorf("transfers = %d, want %d", s.C.Stats.TransferCalls, 2*ell+2)
	}
}

func TestPaperSetInstructionCounts(t *testing.T) {
	// Verify the ℓ = 6 arithmetic symbolically (no need to run the big set):
	// the count formulas above with ell = 6 must equal Table II.
	ell := 6
	if got := 8 + ell; got != 14 {
		t.Errorf("NTT calls %d, Table II says 14", got)
	}
	if got := 6 + 2; got != 8 {
		t.Errorf("INTT calls %d, Table II says 8", got)
	}
	if got := 8 + 2*ell; got != 20 {
		t.Errorf("CMUL calls %d, Table II says 20", got)
	}
	if got := (8 + 6 + 2) + ell; got != 22 {
		t.Errorf("REARR+DECOMP calls %d, Table II says 22", got)
	}
}

func TestMulRejectsWrongDegree(t *testing.T) {
	p, s := setup(t)
	ct3 := fv.NewCiphertext(p, 3)
	ct2 := fv.NewCiphertext(p, 2)
	if _, _, err := s.Mul(ct3, ct2, &fv.RelinKey{}); err == nil {
		t.Fatal("expected degree error")
	}
	if _, _, err := s.Add(ct3, ct2); err == nil {
		t.Fatal("expected degree error")
	}
}

func TestSchedulerDepthChainOnCoprocessor(t *testing.T) {
	// A depth-2 chain entirely on the simulated hardware must still decrypt.
	p, s := setup(t)
	prng := sampler.NewPRNG(5)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	dec := fv.NewDecryptor(p, sk)

	two := fv.NewPlaintext(p)
	two.Coeffs[0] = 2
	ct := enc.Encrypt(two)
	for d := 0; d < 2; d++ {
		var err error
		ct, _, err = s.Mul(ct, ct, rk)
		if err != nil {
			t.Fatal(err)
		}
	}
	// 2^4 = 16.
	if pt := dec.Decrypt(ct); pt.Coeffs[0] != 16 {
		t.Fatalf("((2)²)² = %d, want 16", pt.Coeffs[0])
	}
}

func TestMulMemoryHighWater(t *testing.T) {
	// The slot-reuse discipline must keep the Mult schedule inside the
	// hardware's memory file: the paper's BRAM budget provisions 66
	// residue-polynomial buffers (hwsim.PaperResourceConfig), and the
	// schedule peaks at exactly 5 full-basis polynomials.
	p, s := setup(t)
	prng := sampler.NewPRNG(130)
	kg := fv.NewKeyGenerator(p, prng)
	_, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	ct := enc.Encrypt(fv.NewPlaintext(p))

	if _, _, err := s.Mul(ct, ct, rk); err != nil {
		t.Fatal(err)
	}
	full := p.QBasis.K() + p.PBasis.K()
	if got, want := s.ResiduePeak(), 5*full; got != want {
		t.Fatalf("residue high-water %d, want %d (5 full-basis polynomials)", got, want)
	}
	// Scaled to the paper's 6+7 basis that is 65 residues — within the 66
	// buffers of the resource model.
	paperPeak := 5 * 13
	if cfg := hwsim.PaperResourceConfig(); paperPeak > cfg.MemFileSlots {
		t.Fatalf("paper-shape peak %d exceeds the modeled memory file (%d slots)",
			paperPeak, cfg.MemFileSlots)
	}
}
