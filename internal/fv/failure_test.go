package fv

import (
	"reflect"
	"testing"

	"repro/internal/sampler"
)

// Failure-injection tests: the scheme must fail the way FV is supposed to
// fail — tampering garbles plaintext, the wrong key decrypts noise, and
// exceeding the noise budget breaks decryption — rather than silently
// succeeding or panicking.

func TestTamperedCiphertextDecryptsWrong(t *testing.T) {
	const tmod = 65537
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(70)
	kg := NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)

	pt := NewPlaintext(p)
	pt.Coeffs[0] = 12345
	ct := enc.Encrypt(pt)

	m := p.QMods[0]

	// Tampering c0 (which enters decryption additively, coefficient-wise)
	// garbles exactly the touched coefficient.
	tampered := ct.Clone()
	tampered.Els[0].Rows[0].Coeffs[0] = m.Add(tampered.Els[0].Rows[0].Coeffs[0], m.Q/2)
	got := dec.Decrypt(tampered)
	if got.Equal(pt) {
		t.Fatal("tampered c0 still decrypts to the original plaintext")
	}
	localDiffs := 0
	for i := range got.Coeffs {
		if got.Coeffs[i] != pt.Coeffs[i] {
			localDiffs++
		}
	}
	if localDiffs != 1 {
		t.Fatalf("c0 tampering damaged %d coefficients, expected exactly 1", localDiffs)
	}

	// Tampering c1 (which is multiplied by the secret polynomial) spreads
	// over many coefficients.
	tampered = ct.Clone()
	tampered.Els[1].Rows[0].Coeffs[0] = m.Add(tampered.Els[1].Rows[0].Coeffs[0], m.Q/2)
	got = dec.Decrypt(tampered)
	spreadDiffs := 0
	for i := range got.Coeffs {
		if got.Coeffs[i] != pt.Coeffs[i] {
			spreadDiffs++
		}
	}
	if spreadDiffs < p.N()/4 {
		t.Fatalf("c1 tampering damaged only %d coefficients; should spread via c1·s", spreadDiffs)
	}
}

func TestWrongKeyDecryptsGarbage(t *testing.T) {
	const tmod = 65537
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(71)
	kg := NewKeyGenerator(p, prng)
	sk1, pk1, _ := kg.GenKeys()
	sk2 := kg.GenSecretKey()
	_ = sk1

	enc := NewEncryptor(p, pk1, prng)
	pt := NewPlaintext(p)
	pt.Coeffs[0] = 999
	ct := enc.Encrypt(pt)

	wrong := NewDecryptor(p, sk2).Decrypt(ct)
	if wrong.Equal(pt) {
		t.Fatal("a different secret key decrypted the ciphertext")
	}
}

func TestNoiseExhaustionBreaksDecryption(t *testing.T) {
	// A deliberately undersized modulus (2 primes) cannot absorb repeated
	// squarings; the budget must reach zero and decryption must then fail.
	cfg := Config{N: 256, T: 65537, QCount: 2, PCount: 3, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 3}
	p, err := NewParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(72)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	two := NewPlaintext(p)
	two.Coeffs[0] = 2
	ct := enc.Encrypt(two)
	want := uint64(2)
	broke := false
	budgets := []int{NoiseBudget(p, sk, ct)}
	for d := 0; d < 8; d++ {
		ct = ev.Mul(ct, ct, rk)
		want = want * want % p.T()
		budgets = append(budgets, NoiseBudget(p, sk, ct))
		if dec.Decrypt(ct).Coeffs[0] != want {
			broke = true
			// Decryption failed only after the measured budget hit zero.
			if budgets[len(budgets)-1] > 0 {
				t.Fatalf("decryption failed with %d bits of budget left (budgets %v)",
					budgets[len(budgets)-1], budgets)
			}
			break
		}
	}
	if !broke {
		t.Fatalf("noise never exhausted over 8 squarings (budgets %v)", budgets)
	}
	// The measured budgets are exact, so they are pinned.
	if want := []int{35, 5, 0}; !reflect.DeepEqual(budgets, want) {
		t.Fatalf("budgets %v, pinned %v", budgets, want)
	}
}

func TestNoiseBudgetMonotoneUnderOperations(t *testing.T) {
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(73)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	ev := NewEvaluator(p)

	a := enc.Encrypt(NewPlaintext(p))
	b := enc.Encrypt(NewPlaintext(p))
	fresh := NoiseBudget(p, sk, a)

	// Addition costs at most ~1 bit.
	if got := NoiseBudget(p, sk, ev.Add(a, b)); got < fresh-2 {
		t.Fatalf("addition consumed %d bits", fresh-got)
	}
	// Multiplication costs many bits but must leave a valid ciphertext.
	mulBudget := NoiseBudget(p, sk, ev.Mul(a, b, rk))
	if mulBudget >= fresh {
		t.Fatal("multiplication did not consume budget")
	}
	if mulBudget <= 0 {
		t.Fatal("single multiplication exhausted the test parameters")
	}
	// Relinearized and unrelinearized products decrypt identically, and the
	// relinearization cost is bounded.
	noRelin := NoiseBudget(p, sk, ev.MulNoRelin(a, b))
	if noRelin < mulBudget-1 {
		t.Fatalf("relinearization increased budget?! %d vs %d", mulBudget, noRelin)
	}
}

func TestZeroSlotCiphertextOperations(t *testing.T) {
	// Degenerate inputs: all-zero plaintexts through the full pipeline.
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(74)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	zero := enc.Encrypt(NewPlaintext(p))
	prod := ev.Mul(zero, zero, rk)
	for i, c := range dec.Decrypt(prod).Coeffs {
		if c != 0 {
			t.Fatalf("0·0 has non-zero coefficient at %d", i)
		}
	}
}
