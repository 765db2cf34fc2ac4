// Package ring implements modular arithmetic for the word-sized NTT-friendly
// prime moduli the RNS representation is built from (the paper uses 30-bit
// primes, Sec. III-B), along with prime generation and root-of-unity search.
//
// Two reduction algorithms are provided: Barrett reduction (the software
// fast path) and the paper's sliding-window table reduction (Sec. V-A4),
// which mirrors the FPGA modular-reduction circuit and is used by the
// hardware simulator. Both are tested against each other.
package ring

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the widest modulus the arithmetic supports. Products of
// two residues must fit in a uint64, so moduli are capped at 31 bits; the
// paper's implementation uses 30-bit primes.
const MaxModulusBits = 31

// Modulus bundles a prime modulus with its precomputed reduction constants.
type Modulus struct {
	Q uint64 // the modulus, 2 < Q < 2^31

	// barrettHi is floor(2^64 / Q), used as a single-word Barrett constant:
	// for every x < 2^64 the estimate floor(x·barrettHi / 2^64) undershoots
	// floor(x/Q) by at most one (barrettHi is short of 2^64/Q by less than 1,
	// so the product is short of x/Q by less than x/2^64 < 1), hence
	// x - floor(x·barrettHi / 2^64)·Q < 2Q.
	barrettHi uint64
}

// NewModulus prepares reduction constants for q. It panics if q is out of
// range; modulus selection is a setup-time decision and an invalid modulus
// is a programming error, not a runtime condition.
func NewModulus(q uint64) Modulus {
	if q < 3 || bits.Len64(q) > MaxModulusBits {
		panic(fmt.Sprintf("ring: modulus %d out of range (need 3 ≤ q < 2^%d)", q, MaxModulusBits))
	}
	// floor(2^64 / q) < 2^64 since q ≥ 3: Div64 of the 128-bit dividend 2^64
	// = (hi 1, lo 0), whose quotient fits one word because 1 < q.
	hi, _ := bits.Div64(1, 0, q)
	return Modulus{Q: q, barrettHi: hi}
}

// Reduce returns x mod Q for any 64-bit x, via Barrett reduction.
func (m Modulus) Reduce(x uint64) uint64 {
	qhat := mulHi(x, m.barrettHi)
	r := x - qhat*m.Q
	// The estimate is short by at most one Q (see barrettHi).
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

func mulHi(x, y uint64) uint64 {
	hi, _ := bits.Mul64(x, y)
	return hi
}

// Add returns (a + b) mod Q for a, b < Q.
func (m Modulus) Add(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns (a - b) mod Q for a, b < Q.
func (m Modulus) Sub(a, b uint64) uint64 {
	d := a - b
	if d > a { // borrow
		d += m.Q
	}
	return d
}

// Neg returns -a mod Q for a < Q.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Mul returns a·b mod Q for a, b < Q. Since Q < 2^31 the product fits in a
// uint64 and a single Barrett pass reduces it.
func (m Modulus) Mul(a, b uint64) uint64 {
	return m.Reduce(a * b)
}

// ShoupPrecomp returns the Shoup constant w' = floor(w·2^64/Q) for a fixed
// operand w < Q. Together with MulShoup/MulShoupLazy it turns a modular
// multiplication by w into two machine multiplications and no division —
// the software analogue of the hard-wired twiddle datapath in the paper's
// butterfly cores, where one operand is always a ROM constant.
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	if w >= m.Q {
		panic("ring: Shoup operand must be reduced")
	}
	hi, _ := bits.Div64(w, 0, m.Q)
	return hi
}

// MulShoupLazy returns w·x mod Q in the lazy range [0, 2Q), for any x < 2^64
// and wShoup = ShoupPrecomp(w). The quotient estimate floor(x·w'/2^64)
// undershoots floor(w·x/Q) by at most one, so a single (deferred) subtraction
// of Q completes the reduction — the lazy form the NTT butterflies exploit.
func (m Modulus) MulShoupLazy(x, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(x, wShoup)
	return x*w - qhat*m.Q
}

// MulShoup returns w·x mod Q fully reduced, for x < 2^64.
func (m Modulus) MulShoup(x, w, wShoup uint64) uint64 {
	r := m.MulShoupLazy(x, w, wShoup)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// Pow returns a^e mod Q by square-and-multiply.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := m.Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns a^-1 mod Q for a ≢ 0; Q is prime so Fermat's little theorem
// applies. It panics on a ≡ 0.
func (m Modulus) Inv(a uint64) uint64 {
	if m.Reduce(a) == 0 {
		panic("ring: inverse of zero")
	}
	return m.Pow(a, m.Q-2)
}

// Centered returns the symmetric representative of a in (-Q/2, Q/2],
// as a signed integer.
func (m Modulus) Centered(a uint64) int64 {
	a = m.Reduce(a)
	if a > m.Q/2 {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}

// FromSigned maps a signed integer into [0, Q).
func (m Modulus) FromSigned(v int64) uint64 {
	r := v % int64(m.Q)
	if r < 0 {
		r += int64(m.Q)
	}
	return uint64(r)
}
