package poly

import (
	"fmt"

	"repro/internal/ring"
)

// Poly is a single residue polynomial: n coefficients modulo one RNS prime.
// Coefficients are always kept reduced (< q). Whether the values are in
// coefficient or NTT representation is tracked by the callers (internal/fv
// and internal/hwsim both carry explicit domain tags); Poly itself is
// representation-agnostic since every operation here is coefficient-wise or
// an explicit transform.
type Poly struct {
	Mod    ring.Modulus
	Coeffs []uint64
}

// NewPoly returns a zero polynomial of degree bound n over m.
func NewPoly(m ring.Modulus, n int) Poly {
	return Poly{Mod: m, Coeffs: make([]uint64, n)}
}

// Clone returns a deep copy of p.
func (p Poly) Clone() Poly {
	return Poly{Mod: p.Mod, Coeffs: append([]uint64(nil), p.Coeffs...)}
}

// N returns the coefficient count.
func (p Poly) N() int { return len(p.Coeffs) }

func (p Poly) checkCompat(o Poly) {
	if p.Mod.Q != o.Mod.Q || len(p.Coeffs) != len(o.Coeffs) {
		panic(fmt.Sprintf("poly: incompatible operands (q=%d,n=%d vs q=%d,n=%d)",
			p.Mod.Q, len(p.Coeffs), o.Mod.Q, len(o.Coeffs)))
	}
}

// AddInto sets dst = p + o coefficient-wise. dst may alias either operand.
func (p Poly) AddInto(o, dst Poly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	p.Mod.VecAddInto(dst.Coeffs, p.Coeffs, o.Coeffs)
}

// SubInto sets dst = p - o coefficient-wise.
func (p Poly) SubInto(o, dst Poly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	p.Mod.VecSubInto(dst.Coeffs, p.Coeffs, o.Coeffs)
}

// MulInto sets dst = p ⊙ o (coefficient-wise product; the polynomial product
// when both operands are in the NTT domain).
func (p Poly) MulInto(o, dst Poly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	p.Mod.VecMulInto(dst.Coeffs, p.Coeffs, o.Coeffs)
}

// NegInto sets dst = -p.
func (p Poly) NegInto(dst Poly) {
	p.checkCompat(dst)
	p.Mod.VecNegInto(dst.Coeffs, p.Coeffs)
}

// ScalarMulInto sets dst = c·p for a scalar c.
func (p Poly) ScalarMulInto(c uint64, dst Poly) {
	p.checkCompat(dst)
	p.Mod.VecScalarMulInto(dst.Coeffs, p.Coeffs, c)
}

// MulAddInto sets dst += p ⊙ o (multiply-accumulate, the SoP primitive of
// the relinearization step).
func (p Poly) MulAddInto(o, dst Poly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	p.Mod.VecMulAddInto(dst.Coeffs, p.Coeffs, o.Coeffs)
}

// Equal reports whether p and o have identical moduli and coefficients. The
// vector unit compares a prefix first (words_amd64.go); the loop is the rest.
func (p Poly) Equal(o Poly) bool {
	if p.Mod.Q != o.Mod.Q || len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	done, same := equalSIMD(p.Coeffs, o.Coeffs)
	if !same {
		return false
	}
	for i := done; i < len(p.Coeffs); i++ {
		if p.Coeffs[i] != o.Coeffs[i] {
			return false
		}
	}
	return true
}

// NegacyclicMulSchoolbook returns p·o mod (x^n + 1) by the O(n²) direct
// method. It is the correctness oracle for the NTT-based multiplication and
// is only suitable for the small test degrees.
func NegacyclicMulSchoolbook(p, o Poly) Poly {
	p.checkCompat(o)
	n := len(p.Coeffs)
	m := p.Mod
	out := NewPoly(m, n)
	for i, a := range p.Coeffs {
		if a == 0 {
			continue
		}
		for j, b := range o.Coeffs {
			prod := m.Mul(a, b)
			k := i + j
			if k < n {
				out.Coeffs[k] = m.Add(out.Coeffs[k], prod)
			} else {
				out.Coeffs[k-n] = m.Sub(out.Coeffs[k-n], prod)
			}
		}
	}
	return out
}

// NegacyclicMulNTT returns p·o mod (x^n + 1) via the transform tables t
// (which must match p's modulus and length).
func NegacyclicMulNTT(t *NTTTable, p, o Poly) Poly {
	p.checkCompat(o)
	a := p.Clone()
	b := o.Clone()
	t.Forward(a.Coeffs)
	t.Forward(b.Coeffs)
	a.MulInto(b, a)
	t.Inverse(a.Coeffs)
	return a
}
