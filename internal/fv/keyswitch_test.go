package fv

import (
	"testing"

	"repro/internal/sampler"
)

func TestSwitchKeyReEncrypts(t *testing.T) {
	const tmod = 65537
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(120)
	kg := NewKeyGenerator(p, prng)

	// Alice and Bob have independent keys.
	skA := kg.GenSecretKey()
	pkA := kg.GenPublicKey(skA)
	skB := kg.GenSecretKey()

	sw := kg.GenSwitchKey(skA, skB)

	enc := NewEncryptor(p, pkA, prng)
	pt := NewPlaintext(p)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(13*i + 5)
	}
	ct := enc.Encrypt(pt)

	ev := NewEvaluator(p)
	switched := ev.SwitchKey(ct, sw)

	// Bob can now decrypt; Alice's key no longer works.
	if got := NewDecryptor(p, skB).Decrypt(switched); !got.Equal(pt) {
		t.Fatal("switched ciphertext does not decrypt under the destination key")
	}
	if got := NewDecryptor(p, skA).Decrypt(switched); got.Equal(pt) {
		t.Fatal("switched ciphertext still decrypts under the source key")
	}
	// Budget survives the switch.
	if b := NoiseBudget(p, skB, switched); b <= 0 {
		t.Fatalf("key switch exhausted the budget")
	}
}

func TestSwitchKeyComposesWithEvaluation(t *testing.T) {
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(121)
	kg := NewKeyGenerator(p, prng)
	skA := kg.GenSecretKey()
	pkA := kg.GenPublicKey(skA)
	rkA := kg.GenRelinKey(skA)
	skB := kg.GenSecretKey()
	sw := kg.GenSwitchKey(skA, skB)

	enc := NewEncryptor(p, pkA, prng)
	ev := NewEvaluator(p)
	a := NewPlaintext(p)
	a.Coeffs[0] = 6
	b := NewPlaintext(p)
	b.Coeffs[0] = 7

	// Compute under Alice's key, then hand the result to Bob.
	prod := ev.Mul(enc.Encrypt(a), enc.Encrypt(b), rkA)
	handed := ev.SwitchKey(prod, sw)
	if got := NewDecryptor(p, skB).Decrypt(handed).Coeffs[0]; got != 42 {
		t.Fatalf("re-encrypted product decrypts to %d, want 42", got)
	}
}

func TestSwitchKeyRejectsDegree2(t *testing.T) {
	p := testParams(t, 257)
	kg := NewKeyGenerator(p, sampler.NewPRNG(122))
	skA := kg.GenSecretKey()
	skB := kg.GenSecretKey()
	sw := kg.GenSwitchKey(skA, skB)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEvaluator(p).SwitchKey(NewCiphertext(p, 3), sw)
}
