package rns

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// exactRound is the math/big oracle of MessageScaler.round: for x ∈ [0, q)
// it returns round(t·x/q) mod t and the residual w = t·x − q·round(t·x/q).
func exactRound(q *big.Int, t uint64, x *big.Int) (uint64, *big.Int) {
	tb := new(big.Int).SetUint64(t)
	tx := new(big.Int).Mul(x, tb)
	// round(a/q) = ⌊(2a + q)/2q⌋.
	y := new(big.Int).Lsh(tx, 1)
	y.Add(y, q).Quo(y, new(big.Int).Lsh(q, 1))
	w := new(big.Int).Sub(tx, new(big.Int).Mul(q, y))
	return y.Mod(y, tb).Uint64(), w
}

// flipMargin is ⌈q·ε⌉ for ε = k·2^(MaxModulusBits−128), the bound of the
// MessageScaler comment: the kernel may differ from exact rounding only when
// |w| > q/2 − q·ε.
func flipMargin(b *Basis) *big.Int {
	m := new(big.Int).Mul(b.Product, big.NewInt(int64(b.K())))
	m.Lsh(m, ring.MaxModulusBits)
	one := big.NewInt(1)
	m.Add(m, new(big.Int).Sub(new(big.Int).Lsh(one, 128), one))
	return m.Rsh(m, 128)
}

// outsideFlipBand reports whether |w| ≤ q/2 − ⌈q·ε⌉, where the bound says
// the kernel is exact.
func outsideFlipBand(b *Basis, w *big.Int) bool {
	lhs := new(big.Int).Abs(w)
	lhs.Lsh(lhs, 1)
	rhs := new(big.Int).Lsh(flipMargin(b), 1)
	rhs.Sub(b.Product, rhs)
	return lhs.Cmp(rhs) <= 0
}

// TestMessageScalerMatchesExactRounding holds the RNS decryption rounding to
// exact rounding over the q bases of fv.TestConfig (n = 256, three 30-bit
// primes) and of the paper set (n = 4096, six), for t from 2 to just below
// 2^64: on random phases, and on crafted ones whose residual sits at
// |w| = ⌊q/2⌋ − δ for δ from q·2^-20 down to the flip margin of the bound.
func TestMessageScalerMatchesExactRounding(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, shape := range []struct{ n, k int }{{256, 3}, {4096, 6}} {
		qb, _ := paperBases(t, shape.n, shape.k, 1)
		q, margin := qb.Product, flipMargin(qb)
		for _, tmod := range []uint64{2, 257, 65537, 1<<64 - 59} {
			ms, err := NewMessageScaler(qb, tmod)
			if err != nil {
				t.Fatal(err)
			}
			check := func(x *big.Int) *big.Int {
				want, w := exactRound(q, tmod, x)
				if got := ms.round(decompose(qb, x)); got != want {
					t.Fatalf("n=%d t=%d x=%s (w=%s): round %d, exact %d", shape.n, tmod, x, w, got, want)
				}
				return w
			}
			for trial := 0; trial < 200; trial++ {
				check(randBelow(r, q))
			}
			// x = w·t⁻¹ mod q has residual exactly w, for |w| < q/2.
			tInv := new(big.Int).ModInverse(new(big.Int).SetUint64(tmod), q)
			for s := uint(20); ; s++ {
				delta := new(big.Int).Rsh(q, s)
				last := delta.Cmp(margin) <= 0
				if last {
					delta.Set(margin)
				}
				for _, neg := range []bool{false, true} {
					w := new(big.Int).Sub(qb.half, delta)
					if neg {
						w.Neg(w)
					}
					x := new(big.Int).Mul(w, tInv)
					if got := check(x.Mod(x, q)); got.Cmp(w) != 0 {
						t.Fatalf("crafted residual %s came out as %s", w, got)
					}
				}
				if last {
					break
				}
			}
		}
	}
}

func TestMessageScalerDelta(t *testing.T) {
	qb, _ := paperBases(t, 256, 3, 1)
	ms, err := NewMessageScaler(qb, 65537)
	if err != nil {
		t.Fatal(err)
	}
	delta := new(big.Int).Quo(qb.Product, big.NewInt(65537))
	for i, m := range qb.Mods {
		if want := new(big.Int).Mod(delta, new(big.Int).SetUint64(m.Q)).Uint64(); ms.Delta[i] != want {
			t.Fatalf("Delta[%d] = %d, want %d", i, ms.Delta[i], want)
		}
	}
	if _, err := NewMessageScaler(qb, 1); err == nil {
		t.Fatal("expected error for t < 2")
	}
}

// FuzzMessageScaler compares the kernel with exact rounding on arbitrary
// residues over the paper set's q basis and any t ≥ 2, wherever the bound
// promises equality.
func FuzzMessageScaler(f *testing.F) {
	qb, _ := paperBases(f, 4096, 6, 1)
	f.Add(uint64(65537), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6))
	f.Add(uint64(2), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(1))
	f.Add(uint64(1<<64-59), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, tmod, x0, x1, x2, x3, x4, x5 uint64) {
		if tmod < 2 {
			t.Skip()
		}
		ms, err := NewMessageScaler(qb, tmod)
		if err != nil {
			t.Fatal(err)
		}
		res := []uint64{x0, x1, x2, x3, x4, x5}
		for i, m := range qb.Mods {
			res[i] %= m.Q
		}
		x := qb.ReconstructCentered(res)
		want, w := exactRound(qb.Product, tmod, x.Mod(x, qb.Product))
		if !outsideFlipBand(qb, w) {
			t.Skip()
		}
		if got := ms.round(res); got != want {
			t.Fatalf("t=%d residues %v: round %d, exact %d", tmod, res, got, want)
		}
	})
}
