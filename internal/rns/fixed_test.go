package rns

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestFracDivAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 500; i++ {
		den := uint64(r.Int63n(1<<30-2)) + 2
		num := uint64(r.Int63n(int64(den)))
		f := fracDiv(num, den)
		// want = floor(num * 2^128 / den)
		want := new(big.Int).Lsh(new(big.Int).SetUint64(num), 128)
		want.Quo(want, new(big.Int).SetUint64(den))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(f.hi), 64)
		got.Or(got, new(big.Int).SetUint64(f.lo))
		if got.Cmp(want) != 0 {
			t.Fatalf("fracDiv(%d,%d) mismatch", num, den)
		}
	}
}

func TestFracDivGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for num >= den")
		}
	}()
	fracDiv(5, 5)
}

// TestAcc192RoundMatchesExactRational accumulates Σ x_i·(r_i/q_i) with the
// fixed-point machinery and checks the rounded result against an exact
// rational computation — this is precisely the HPS v' computation of Eq. 2.
func TestAcc192RoundMatchesExactRational(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		var acc acc192
		// Exact value as a fraction num/den via common denominator.
		num := big.NewInt(0)
		den := big.NewInt(1)
		terms := 6 + r.Intn(8)
		for i := 0; i < terms; i++ {
			q := uint64(r.Int63n(1<<30-2)) + 2
			ri := uint64(r.Int63n(int64(q)))
			x := uint64(r.Int63n(1 << 30))
			acc.addMul(x, fracDiv(ri, q))
			// num/den += x*ri/q
			add := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(ri))
			num.Mul(num, new(big.Int).SetUint64(q))
			num.Add(num, add.Mul(add, den))
			den.Mul(den, new(big.Int).SetUint64(q))
		}
		// Exact rounded value: floor((2*num + den) / (2*den)).
		exact := new(big.Int).Lsh(num, 1)
		exact.Add(exact, den)
		exact.Quo(exact, new(big.Int).Lsh(den, 1))
		got := acc.round()
		// The fixed-point truncation can differ from the exact rounding only
		// when the true value is within ~terms·2^-98 of a half-integer
		// boundary, which random inputs essentially never hit.
		if got != exact.Uint64() {
			t.Fatalf("trial %d: fixed-point round %d, exact %d", trial, got, exact)
		}
	}
}

func TestAcc192RoundTiesUp(t *testing.T) {
	var acc acc192
	acc.addMul(83, fracDiv(1, 2)) // 41.5 exactly
	if got := acc.round(); got != 42 {
		t.Fatalf("round(41.5) = %d, want 42 (ties up)", got)
	}
}
