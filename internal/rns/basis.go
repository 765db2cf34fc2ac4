// Package rns implements the residue-number-system machinery of the paper
// (Sec. III-B, IV-C, IV-D): CRT decomposition/reconstruction, base extension
// ("Lift q→Q") and scaled rounding ("Scale Q→q") in both of the paper's
// design-space variants — the traditional multi-precision CRT dataflow
// (Figs. 5 and 8) and the Halevi–Polyakov–Shoup small-integer dataflow
// (Figs. 6 and 9) — plus the per-prime decomposition used by
// relinearization.
package rns

import (
	"fmt"

	"repro/internal/mp"
	"repro/internal/ring"
)

// Variant selects which of the paper's two design points performs Lift q→Q
// and Scale Q→q. Key files store it as a word, so the values are fixed.
type Variant int

const (
	// HPS is the Halevi–Polyakov–Shoup small-integer dataflow (the paper's
	// faster architecture, Figs. 6 and 9).
	HPS Variant = iota
	// Traditional is the multi-precision CRT dataflow (Figs. 5 and 8):
	// full reconstruction, then a long division. Numerically it is the exact
	// oracle (ExtendExact, ScaleExact); what sets it apart is what the
	// hardware simulator charges for it.
	Traditional
)

func (v Variant) String() string {
	if v == Traditional {
		return "traditional"
	}
	return "hps"
}

// Basis is an RNS basis: a list of pairwise-coprime word-sized primes with
// the CRT constants precomputed.
type Basis struct {
	Mods    []ring.Modulus
	Product mp.Nat // Q = Π q_i

	// QStar[i] = Q/q_i and QTilde[i] = (Q/q_i)^-1 mod q_i are the CRT
	// constants of Theorem 1 in the paper.
	QStar  []mp.Nat
	QTilde []uint64

	// sopConst[i] = q̃_i·q*_i, the precomputed long-integer constants of the
	// traditional reconstruction (paper Fig. 5, "the constant computations
	// such as q̃_i·q*_i are not performed ... stored in tables").
	sopConst []mp.Nat

	// recip is the fixed-point reciprocal of Q used by the traditional
	// division block; invFrac[i] is the 128-bit fixed-point 1/q_i used by
	// the HPS quotient estimate.
	recip   *mp.Reciprocal
	invFrac []mp.Frac128
}

// NewBasis builds a basis over mods. The moduli must be distinct primes
// (pairwise coprimality is what CRT requires; distinct primes guarantee it).
func NewBasis(mods []ring.Modulus) (*Basis, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	seen := map[uint64]bool{}
	prod := mp.NewNat(1)
	for _, m := range mods {
		if seen[m.Q] {
			return nil, fmt.Errorf("rns: duplicate modulus %d", m.Q)
		}
		if !ring.IsPrime(m.Q) {
			return nil, fmt.Errorf("rns: modulus %d is not prime", m.Q)
		}
		seen[m.Q] = true
		prod = prod.MulWord(m.Q)
	}
	b := &Basis{
		Mods:     append([]ring.Modulus(nil), mods...),
		Product:  prod,
		QStar:    make([]mp.Nat, len(mods)),
		QTilde:   make([]uint64, len(mods)),
		sopConst: make([]mp.Nat, len(mods)),
		invFrac:  make([]mp.Frac128, len(mods)),
	}
	for i, m := range mods {
		qStar, _ := prod.DivMod(mp.NewNat(m.Q))
		b.QStar[i] = qStar
		b.QTilde[i] = m.Inv(qStar.ModWord(m.Q))
		b.sopConst[i] = qStar.MulWord(b.QTilde[i])
		b.invFrac[i] = mp.FracDiv(1, m.Q)
	}
	// The traditional sop = Σ a_i·q̃_i·q*_i is bounded by k·q_max·Q, i.e.
	// Q's width plus ~35 bits; size the division block accordingly.
	b.recip = mp.NewReciprocal(prod, prod.BitLen()+ring.MaxModulusBits+8)
	return b, nil
}

// K returns the number of primes in the basis.
func (b *Basis) K() int { return len(b.Mods) }

// Decompose returns the residues x mod q_i. The value x must be < Q.
func (b *Basis) Decompose(x mp.Nat) []uint64 {
	if x.Cmp(b.Product) >= 0 {
		panic("rns: Decompose input not reduced modulo the basis product")
	}
	out := make([]uint64, len(b.Mods))
	for i, m := range b.Mods {
		out[i] = x.ModWord(m.Q)
	}
	return out
}

// DecomposeSigned returns the residues of the signed value (mag, neg).
func (b *Basis) DecomposeSigned(mag mp.Nat, neg bool) []uint64 {
	res := b.Decompose(mag.Mod(b.Product))
	if neg {
		for i, m := range b.Mods {
			res[i] = m.Neg(res[i])
		}
	}
	return res
}

// Reconstruct returns the unique x in [0, Q) with x ≡ res_i (mod q_i),
// using the traditional CRT with the precomputed q̃_i·q*_i table and the
// reciprocal-multiplication division by Q — the same dataflow as the
// paper's Fig. 5 reconstruction (sop, then v = sop/Q, then sop - v·Q).
func (b *Basis) Reconstruct(res []uint64) mp.Nat {
	if len(res) != len(b.Mods) {
		panic("rns: residue count mismatch")
	}
	sop := mp.Nat{}
	for i, r := range res {
		sop = sop.Add(b.sopConst[i].MulWord(b.Mods[i].Reduce(r)))
	}
	_, rem := b.recip.DivMod(sop)
	return rem
}

// ReconstructCentered returns the centered representative x̂ ∈ (-Q/2, Q/2]
// as a magnitude and sign.
func (b *Basis) ReconstructCentered(res []uint64) (mag mp.Nat, neg bool) {
	x := b.Reconstruct(res)
	half := b.Product.Shr(1)
	if x.Cmp(half) > 0 {
		return b.Product.Sub(x), true
	}
	return x, false
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
