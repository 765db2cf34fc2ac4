package rlwe

import (
	"fmt"

	"repro/internal/poly"
	"repro/internal/ring"
)

// Galois automorphisms σ_g: a(x) ↦ a(x^g) mod (x^n + 1) for odd g. Both
// scheme bindings implement slot rotation as an automorphism followed by the
// gadget key switch; the index permutation is scheme-independent and lives
// here.

// CheckGaloisElement refuses anything but an odd g with 1 ≤ g < 2n — the
// units of Z_2n, which are exactly the g for which σ_g is an automorphism.
// Key generators, key-file readers and slot-permutation tracing all stand on
// this one check.
func CheckGaloisElement(g, n int) error {
	if g%2 == 0 || g < 1 || g >= 2*n {
		return fmt.Errorf("rlwe: invalid Galois element %d (need odd, 1 ≤ g < %d)", g, 2*n)
	}
	return nil
}

// AutomorphRowInto computes dst = σ_g(src) for one residue row in
// coefficient representation: coefficient i moves to position i·g mod 2n,
// negated when the exponent wraps past n (x^n ≡ -1). The exponent steps by
// g mod 2n from one coefficient to the next, one conditional subtraction
// instead of a division per coefficient. The permutation is not in place:
// dst aliasing src panics.
func AutomorphRowInto(m ring.Modulus, g int, src, dst poly.Poly) {
	n := len(src.Coeffs)
	if n == 0 {
		return
	}
	if &src.Coeffs[0] == &dst.Coeffs[0] {
		panic("rlwe: automorphism destination aliases its source")
	}
	twoN := 2 * n
	step := g % twoN
	dst.Coeffs = dst.Coeffs[:n]
	for i, j := 0, 0; i < n; i++ {
		v := src.Coeffs[i]
		if j >= n {
			dst.Coeffs[j-n] = m.Neg(v)
		} else {
			dst.Coeffs[j] = v
		}
		if j += step; j >= twoN {
			j -= twoN
		}
	}
}

// AutomorphInto computes σ_g over all residue rows (coefficient domain).
// dst must not alias src.
func AutomorphInto(g int, src, dst poly.RNSPoly) {
	for i := range src.Rows {
		AutomorphRowInto(src.Rows[i].Mod, g, src.Rows[i], dst.Rows[i])
	}
}

// Automorph returns σ_g(src) in fresh rows.
func Automorph(g int, src poly.RNSPoly) poly.RNSPoly {
	dst := zeroLike(src)
	AutomorphInto(g, src, dst)
	return dst
}
