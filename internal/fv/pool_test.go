package fv

import (
	"sync"
	"testing"

	"repro/internal/sampler"
)

// poolParams builds the test configuration with an explicit pool width.
// Prime generation is deterministic, so parameter sets of different widths
// share moduli and differ only in how work is fanned out.
func poolParams(t *testing.T, poolSize int) *Params {
	t.Helper()
	cfg := TestConfig(257)
	cfg.PoolSize = poolSize
	p, err := NewParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolSizeOneMatchesParallel is the regression pinning the tentpole's
// bit-identity claim: a sequential (width-1) pool and a parallel pool must
// produce byte-for-byte identical keys, ciphertexts, and products.
func TestPoolSizeOneMatchesParallel(t *testing.T) {
	run := func(p *Params) (*Ciphertext, *Plaintext) {
		prng := sampler.NewPRNG(42)
		kg := NewKeyGenerator(p, prng)
		sk, pk, rk := kg.GenKeys()
		enc := NewEncryptor(p, pk, prng)
		ev := NewEvaluator(p)
		a := NewPlaintext(p)
		b := NewPlaintext(p)
		for i := range a.Coeffs {
			a.Coeffs[i] = uint64(3*i+1) % p.T()
			b.Coeffs[i] = uint64(7*i+2) % p.T()
		}
		ct := ev.Mul(enc.Encrypt(a), enc.Encrypt(b), rk)
		return ct, NewDecryptor(p, sk).Decrypt(ct)
	}
	seqCt, seqPt := run(poolParams(t, 1))
	parCt, parPt := run(poolParams(t, 4))
	if !seqCt.Equal(parCt) {
		t.Fatal("pool size 4 produced a different ciphertext than pool size 1")
	}
	if !seqPt.Equal(parPt) {
		t.Fatal("pool size 4 produced a different decryption than pool size 1")
	}
}

// TestParallelMulRace exercises concurrent Evaluator.Mul calls sharing one
// parameter set and pool; CI runs the suite under -race, which turns any
// shared-state write in the fanned-out kernels into a failure here.
func TestParallelMulRace(t *testing.T) {
	p := poolParams(t, 4)
	prng := sampler.NewPRNG(43)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)

	a := NewPlaintext(p)
	b := NewPlaintext(p)
	for i := range a.Coeffs {
		a.Coeffs[i] = uint64(5*i) % p.T()
		b.Coeffs[i] = uint64(11*i+3) % p.T()
	}
	ca, cb := enc.Encrypt(a), enc.Encrypt(b)
	want := NewEvaluator(p).Mul(ca, cb, rk)

	const goroutines = 8
	results := make([]*Ciphertext, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine gets its own Evaluator (the documented contract);
			// they all share the Params pool and precomputed tables.
			ev := NewEvaluator(p)
			results[g] = ev.Mul(ca, cb, rk)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if !got.Equal(want) {
			t.Fatalf("goroutine %d produced a different product", g)
		}
	}
	if b := NoiseBudget(p, sk, want); b <= 0 {
		t.Fatalf("product has no noise budget left (%d)", b)
	}
}
