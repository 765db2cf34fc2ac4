// Package rns implements the residue-number-system machinery of the paper
// (Sec. III-B, IV-C, IV-D): CRT decomposition/reconstruction, base extension
// ("Lift q→Q") and scaled rounding ("Scale Q→q") by the Halevi–Polyakov–Shoup
// small-integer dataflow (Figs. 6 and 9), each with the exact
// multi-precision CRT dataflow of Figs. 5 and 8 as its test oracle — plus
// the per-prime decomposition used by
// relinearization and the RNS-native message scaling of FV decryption. The
// exact arithmetic (setup-time CRT constants, the oracles) runs on math/big;
// the HPS stripe kernels use word residues, float64 fraction estimates and
// 128-bit fixed-point fractions only.
package rns

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/ring"
)

// Basis is an RNS basis: a list of pairwise-coprime word-sized primes with
// the CRT constants precomputed.
type Basis struct {
	Mods    []ring.Modulus
	Product *big.Int // Q = Π q_i

	// QStar[i] = Q/q_i and QTilde[i] = (Q/q_i)^-1 mod q_i are the CRT
	// constants of Theorem 1 in the paper.
	QStar  []*big.Int
	QTilde []uint64

	// half = ⌊Q/2⌋ is the centering threshold; invFrac[i] is the 128-bit
	// fixed-point 1/q_i used by the HPS quotient estimate.
	half    *big.Int
	invFrac []frac128
}

// NewBasis builds a basis over mods. The moduli must be distinct primes
// (pairwise coprimality is what CRT requires; distinct primes guarantee it).
func NewBasis(mods []ring.Modulus) (*Basis, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	seen := map[uint64]bool{}
	prod := big.NewInt(1)
	for _, m := range mods {
		if seen[m.Q] {
			return nil, fmt.Errorf("rns: duplicate modulus %d", m.Q)
		}
		if !ring.IsPrime(m.Q) {
			return nil, fmt.Errorf("rns: modulus %d is not prime", m.Q)
		}
		seen[m.Q] = true
		prod.Mul(prod, new(big.Int).SetUint64(m.Q))
	}
	b := &Basis{
		Mods:    append([]ring.Modulus(nil), mods...),
		Product: prod,
		QStar:   make([]*big.Int, len(mods)),
		QTilde:  make([]uint64, len(mods)),
		half:    new(big.Int).Rsh(prod, 1),
		invFrac: make([]frac128, len(mods)),
	}
	for i, m := range mods {
		b.QStar[i] = new(big.Int).Quo(prod, new(big.Int).SetUint64(m.Q))
		b.QTilde[i] = m.Inv(modWord(b.QStar[i], m.Q))
		b.invFrac[i] = fracDiv(1, m.Q)
	}
	return b, nil
}

// K returns the number of primes in the basis.
func (b *Basis) K() int { return len(b.Mods) }

// ReconstructCentered returns the centered representative x̂ ∈ (-Q/2, Q/2]
// of the residues res_i = x mod q_i: the CRT sum Σ (res_i·q̃_i mod q_i)·q*_i,
// reduced modulo Q and centered.
func (b *Basis) ReconstructCentered(res []uint64) *big.Int {
	if len(res) != len(b.Mods) {
		panic("rns: residue count mismatch")
	}
	var term, y big.Int
	x := new(big.Int)
	for i, m := range b.Mods {
		y.SetUint64(m.Mul(m.Reduce(res[i]), b.QTilde[i]))
		x.Add(x, term.Mul(b.QStar[i], &y))
	}
	// Each term is below q_i·q*_i = Q, so x < k·Q: a few subtractions reduce
	// it.
	for x.Cmp(b.Product) >= 0 {
		x.Sub(x, b.Product)
	}
	if x.Cmp(b.half) > 0 {
		x.Sub(x, b.Product)
	}
	return x
}

// modWord returns x mod q for q < 2^32, the canonical residue of a signed x:
// one word division per word of |x|, allocating nothing.
func modWord(x *big.Int, q uint64) uint64 {
	var r uint
	ws := x.Bits()
	for i := len(ws) - 1; i >= 0; i-- {
		_, r = bits.Div(r, uint(ws[i]), uint(q))
	}
	if x.Sign() < 0 && r != 0 {
		r = uint(q) - r
	}
	return uint64(r)
}

// maxQ returns the largest basis prime.
func (b *Basis) maxQ() uint64 {
	var m uint64
	for _, q := range b.Mods {
		m = max(m, q.Q)
	}
	return m
}

// Contains reports whether m is one of the basis primes.
func (b *Basis) Contains(q uint64) bool {
	for _, m := range b.Mods {
		if m.Q == q {
			return true
		}
	}
	return false
}
