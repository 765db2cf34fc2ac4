package sched

import (
	"strings"
	"testing"

	"repro/internal/fv"
	"repro/internal/sampler"
)

func TestScheduledRotateMatchesSoftware(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(110)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	dec := fv.NewDecryptor(p, sk)
	ev := fv.NewEvaluator(p)

	pt := fv.NewPlaintext(p)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i%251) % p.T()
	}
	ct := enc.Encrypt(pt)

	const g = 3
	gk := kg.GenGaloisKey(sk, g)

	got, rep, err := s.Rotate(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.ApplyGalois(ct, gk)
	if !got.Equal(want) {
		t.Fatal("co-processor rotate != software ApplyGalois (bit-exact check)")
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("rotation consumed no cycles")
	}
	if !dec.Decrypt(got).Equal(fv.ApplyAutomorphismPlain(p, g, pt)) {
		t.Fatal("rotated ciphertext decrypts wrong")
	}
	// Cheaper than a full Mult (no lift/scale, q-basis only).
	sFresh := s
	sFresh.C.ResetStats()
	rk := kg.GenRelinKey(sk)
	_, mul, err := sFresh.Mul(ct, ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeCycles >= mul.ComputeCycles {
		t.Fatalf("rotate (%d) should be cheaper than Mult (%d)", rep.ComputeCycles, mul.ComputeCycles)
	}
}

func TestProgramListing(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(112)
	kg := fv.NewKeyGenerator(p, prng)
	_, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	ct := enc.Encrypt(fv.NewPlaintext(p))

	s.Record = true
	if _, _, err := s.Mul(ct, ct, rk); err != nil {
		t.Fatal(err)
	}
	listing := s.ProgramListing()
	for _, want := range []string{"lift", "ntt", "cmul", "scale", "wdec", "DMA", "total"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}
