package rns

import (
	"math"
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

// TestFracLanesMatchScalar holds the fraction lanes to a scalar rendition of
// their arithmetic bit for bit, at every stripe width up to liftStripe, so
// the vector prefix and the Go tail are both compared: the sums, the
// rounding, the tie flags and the clearing, on random lanes and on lanes placed at,
// inside and just outside the band.
func TestFracLanesMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const eps = 0x1p-20
	for w := 0; w <= liftStripe; w++ {
		var a fracLanes
		want := make([]float64, w)
		f := make([]float64, 5) // an odd count: the last row pairs with itself
		rows := stripeRows{staged: make([]uint64, len(f)*w), w: w, stride: w}
		for i := range f {
			f[i] = r.Float64()
			row := rows.row(i)
			for c := range row {
				row[c] = uint64(r.Int63n(1 << 31))
				want[c] += float64(float64(row[c]) * f[i])
			}
		}
		a.addRows(f, &rows)
		for c := range want {
			if a.s[c] != want[c] {
				t.Fatalf("w=%d lane %d: sum %v, scalar %v", w, c, a.s[c], want[c])
			}
			switch r.Intn(4) {
			case 0: // a tie, or inside the band
				a.s[c] = float64(r.Intn(1<<20)) + 0.5 + float64(r.Intn(3)-1)*eps
			case 1: // just outside it
				a.s[c] = float64(r.Intn(1<<20)) + 0.5 + float64(2*r.Intn(2)-1)*2*eps
			}
		}
		sums := a.s
		v := make([]uint64, w)
		flagged := a.roundInto(v, eps)
		if a != (fracLanes{}) {
			t.Fatalf("w=%d: roundInto left lanes uncleared", w)
		}
		anyFlag := false
		for c, s := range sums[:w] {
			fl := math.Floor(s)
			d := s - fl - 0.5
			want := uint64(fl)
			if d > 0 {
				want++
			}
			if math.Abs(d) <= eps {
				want, anyFlag = flaggedLane, true
			}
			if v[c] != want {
				t.Fatalf("w=%d lane %d: round(%v) = %d, scalar %d", w, c, s, v[c], want)
			}
		}
		if flagged != anyFlag {
			t.Fatalf("w=%d: flagged %v, scalar %v", w, flagged, anyFlag)
		}
	}
}
