// Package mp implements multi-precision natural-number arithmetic from
// scratch on uint64 limbs, plus the fixed-point accumulator types used by the
// HPS approximate-CRT routines.
//
// The package exists for two reasons. First, the paper's "traditional CRT"
// architecture for Lift and Scale performs long-integer arithmetic in
// hardware (sum-of-products, long division by reciprocal multiplication);
// mirroring those dataflows requires explicit limb-level control that
// math/big hides. Second, keeping the arithmetic local makes the cycle
// accounting in internal/hwsim a direct function of limb operations.
// math/big is used only in tests, as an independent oracle.
package mp

import (
	"fmt"
	"math/bits"
)

// Nat is an arbitrary-precision natural number stored as little-endian
// uint64 limbs. The zero value is the number 0. A Nat is normalized when its
// most significant limb is non-zero (the representation of 0 is the empty
// slice); all exported operations return normalized results and accept
// non-normalized inputs.
type Nat struct {
	limbs []uint64
}

// NewNat returns a Nat with the value v.
func NewNat(v uint64) Nat {
	if v == 0 {
		return Nat{}
	}
	return Nat{limbs: []uint64{v}}
}

// NatFromLimbs returns a Nat from little-endian limbs. The slice is copied.
func NatFromLimbs(limbs []uint64) Nat {
	n := Nat{limbs: append([]uint64(nil), limbs...)}
	n.normalize()
	return n
}

// Limbs returns a copy of the little-endian limbs of x (empty for zero).
func (x Nat) Limbs() []uint64 {
	return append([]uint64(nil), x.limbs...)
}

// Uint64 returns the low 64 bits of x.
func (x Nat) Uint64() uint64 {
	if len(x.limbs) == 0 {
		return 0
	}
	return x.limbs[0]
}

// IsZero reports whether x == 0.
func (x Nat) IsZero() bool { return len(x.limbs) == 0 }

// BitLen returns the length of x in bits (0 for zero).
func (x Nat) BitLen() int {
	if len(x.limbs) == 0 {
		return 0
	}
	top := x.limbs[len(x.limbs)-1]
	return (len(x.limbs)-1)*64 + bits.Len64(top)
}

// Bit returns bit i of x (0 or 1).
func (x Nat) Bit(i int) uint {
	if i < 0 {
		return 0
	}
	limb, off := i/64, uint(i%64)
	if limb >= len(x.limbs) {
		return 0
	}
	return uint(x.limbs[limb]>>off) & 1
}

// Clone returns a deep copy of x.
func (x Nat) Clone() Nat {
	return Nat{limbs: append([]uint64(nil), x.limbs...)}
}

func (x *Nat) normalize() {
	for len(x.limbs) > 0 && x.limbs[len(x.limbs)-1] == 0 {
		x.limbs = x.limbs[:len(x.limbs)-1]
	}
}

// Cmp compares x and y, returning -1, 0, or +1.
func (x Nat) Cmp(y Nat) int {
	if len(x.limbs) != len(y.limbs) {
		if len(x.limbs) < len(y.limbs) {
			return -1
		}
		return 1
	}
	for i := len(x.limbs) - 1; i >= 0; i-- {
		if x.limbs[i] != y.limbs[i] {
			if x.limbs[i] < y.limbs[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Add returns x + y.
func (x Nat) Add(y Nat) Nat {
	a, b := x.limbs, y.limbs
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a)+1)
	var carry uint64
	for i := range a {
		var yi uint64
		if i < len(b) {
			yi = b[i]
		}
		s, c1 := bits.Add64(a[i], yi, carry)
		out[i] = s
		carry = c1
	}
	out[len(a)] = carry
	r := Nat{limbs: out}
	r.normalize()
	return r
}

// AddWord returns x + w.
func (x Nat) AddWord(w uint64) Nat { return x.Add(NewNat(w)) }

// Sub returns x - y. It panics if y > x: natural numbers cannot go negative,
// and a silent wraparound would corrupt CRT reconstructions.
func (x Nat) Sub(y Nat) Nat {
	if x.Cmp(y) < 0 {
		panic("mp: Sub underflow")
	}
	out := make([]uint64, len(x.limbs))
	var borrow uint64
	for i := range x.limbs {
		var yi uint64
		if i < len(y.limbs) {
			yi = y.limbs[i]
		}
		d, b1 := bits.Sub64(x.limbs[i], yi, borrow)
		out[i] = d
		borrow = b1
	}
	r := Nat{limbs: out}
	r.normalize()
	return r
}

// MulWord returns x * w.
func (x Nat) MulWord(w uint64) Nat {
	if w == 0 || x.IsZero() {
		return Nat{}
	}
	out := make([]uint64, len(x.limbs)+1)
	var carry uint64
	for i, xi := range x.limbs {
		hi, lo := bits.Mul64(xi, w)
		lo, c := bits.Add64(lo, carry, 0)
		out[i] = lo
		carry = hi + c
	}
	out[len(x.limbs)] = carry
	r := Nat{limbs: out}
	r.normalize()
	return r
}

// Mul returns x * y (schoolbook; operand sizes in this repository are at most
// a dozen limbs, where schoolbook beats anything fancier).
func (x Nat) Mul(y Nat) Nat {
	if x.IsZero() || y.IsZero() {
		return Nat{}
	}
	out := make([]uint64, len(x.limbs)+len(y.limbs))
	for i, xi := range x.limbs {
		var carry uint64
		for j, yj := range y.limbs {
			hi, lo := bits.Mul64(xi, yj)
			lo, c1 := bits.Add64(lo, out[i+j], 0)
			lo, c2 := bits.Add64(lo, carry, 0)
			out[i+j] = lo
			carry = hi + c1 + c2
		}
		out[i+len(y.limbs)] += carry
	}
	r := Nat{limbs: out}
	r.normalize()
	return r
}

// Shl returns x << s.
func (x Nat) Shl(s uint) Nat {
	if x.IsZero() || s == 0 {
		return x.Clone()
	}
	limbShift := int(s / 64)
	bitShift := s % 64
	out := make([]uint64, len(x.limbs)+limbShift+1)
	for i, xi := range x.limbs {
		out[i+limbShift] |= xi << bitShift
		if bitShift != 0 {
			out[i+limbShift+1] |= xi >> (64 - bitShift)
		}
	}
	r := Nat{limbs: out}
	r.normalize()
	return r
}

// Shr returns x >> s.
func (x Nat) Shr(s uint) Nat {
	limbShift := int(s / 64)
	if limbShift >= len(x.limbs) {
		return Nat{}
	}
	bitShift := s % 64
	src := x.limbs[limbShift:]
	out := make([]uint64, len(src))
	for i := range src {
		out[i] = src[i] >> bitShift
		if bitShift != 0 && i+1 < len(src) {
			out[i] |= src[i+1] << (64 - bitShift)
		}
	}
	r := Nat{limbs: out}
	r.normalize()
	return r
}

// ModWord returns x mod m for a word-sized modulus m. It panics if m == 0.
func (x Nat) ModWord(m uint64) uint64 {
	if m == 0 {
		panic("mp: ModWord by zero")
	}
	var r uint64
	for i := len(x.limbs) - 1; i >= 0; i-- {
		// (r:limb) / m with r < m, so the quotient fits in 64 bits.
		_, r = bits.Div64(r, x.limbs[i], m)
	}
	return r
}

// String returns the decimal representation of x.
func (x Nat) String() string {
	if x.IsZero() {
		return "0"
	}
	var digits []byte
	tmp := x.Clone()
	for !tmp.IsZero() {
		q, r := tmp.divModWord(1e18)
		if q.IsZero() {
			digits = append([]byte(fmt.Sprintf("%d", r)), digits...)
		} else {
			digits = append([]byte(fmt.Sprintf("%018d", r)), digits...)
		}
		tmp = q
	}
	return string(digits)
}

// divModWord returns (x / m, x mod m) for a word modulus.
func (x Nat) divModWord(m uint64) (Nat, uint64) {
	if m == 0 {
		panic("mp: division by zero")
	}
	out := make([]uint64, len(x.limbs))
	var r uint64
	for i := len(x.limbs) - 1; i >= 0; i-- {
		out[i], r = bits.Div64(r, x.limbs[i], m)
	}
	q := Nat{limbs: out}
	q.normalize()
	return q, r
}

// Bytes returns the big-endian byte representation of x (empty for zero).
func (x Nat) Bytes() []byte {
	if x.IsZero() {
		return nil
	}
	n := (x.BitLen() + 7) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		limb := i / 8
		off := uint(i%8) * 8
		out[n-1-i] = byte(x.limbs[limb] >> off)
	}
	return out
}

// NatFromBytes builds a Nat from big-endian bytes.
func NatFromBytes(b []byte) Nat {
	limbs := make([]uint64, (len(b)+7)/8)
	for i := 0; i < len(b); i++ {
		limb := i / 8
		off := uint(i%8) * 8
		limbs[limb] |= uint64(b[len(b)-1-i]) << off
	}
	n := Nat{limbs: limbs}
	n.normalize()
	return n
}
