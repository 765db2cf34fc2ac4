package mp

import "math/bits"

// DivMod returns (x / y, x mod y) using Knuth's Algorithm D.
// It panics if y == 0.
func (x Nat) DivMod(y Nat) (q, r Nat) {
	if y.IsZero() {
		panic("mp: division by zero")
	}
	switch x.Cmp(y) {
	case -1:
		return Nat{}, x.Clone()
	case 0:
		return NewNat(1), Nat{}
	}
	if len(y.limbs) == 1 {
		quot, rem := x.divModWord(y.limbs[0])
		return quot, NewNat(rem)
	}

	// D1: normalize so the divisor's top limb has its high bit set, and give
	// the dividend one extra high limb.
	shift := uint(bits.LeadingZeros64(y.limbs[len(y.limbs)-1]))
	u := append(x.Shl(shift).limbs, 0)
	v := y.Shl(shift).limbs
	n := len(v)
	m := len(u) - 1 - n // x ≥ y guarantees m ≥ 0

	quotLimbs := make([]uint64, m+1)
	vn1 := v[n-1]
	vn2 := v[n-2]
	for j := m; j >= 0; j-- {
		// D3: estimate q̂ = (u[j+n]:u[j+n-1]) / v[n-1] and refine it with
		// v[n-2] so that q̂ is at most one too large.
		var qhat, rhat uint64
		rhatOverflow := false
		if u[j+n] >= vn1 {
			// With a normalized divisor this can only be equality; the
			// quotient limb is then b-1.
			qhat = ^uint64(0)
			var c uint64
			rhat, c = bits.Add64(u[j+n-1], vn1, 0)
			rhatOverflow = c != 0
		} else {
			qhat, rhat = bits.Div64(u[j+n], u[j+n-1], vn1)
		}
		for !rhatOverflow {
			hi, lo := bits.Mul64(qhat, vn2)
			if hi > rhat || (hi == rhat && lo > u[j+n-2]) {
				qhat--
				var c uint64
				rhat, c = bits.Add64(rhat, vn1, 0)
				rhatOverflow = c != 0
				continue
			}
			break
		}

		// D4: multiply and subtract, u[j..j+n] -= q̂ · v.
		var borrow uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, v[i])
			s, c := bits.Add64(lo, borrow, 0)
			d, b := bits.Sub64(u[j+i], s, 0)
			u[j+i] = d
			borrow = hi + c + b
		}
		d, underflow := bits.Sub64(u[j+n], borrow, 0)
		u[j+n] = d

		// D6: q̂ was one too large; add back v.
		if underflow != 0 {
			qhat--
			var carry uint64
			for i := 0; i < n; i++ {
				u[j+i], carry = bits.Add64(u[j+i], v[i], carry)
			}
			u[j+n] += carry
		}
		quotLimbs[j] = qhat
	}

	q = Nat{limbs: quotLimbs}
	q.normalize()
	r = Nat{limbs: append([]uint64(nil), u[:n]...)}
	r.normalize()
	r = r.Shr(shift)
	return q, r
}

// Mod returns x mod y.
func (x Nat) Mod(y Nat) Nat {
	_, r := x.DivMod(y)
	return r
}

// Div returns x / y.
func (x Nat) Div(y Nat) Nat {
	q, _ := x.DivMod(y)
	return q
}

// Reciprocal is a precomputed fixed-point reciprocal 1/d used to divide by a
// fixed divisor with a multiplication, the way the paper's division block
// divides by q ("the division by q is performed by multiplying sop with the
// reciprocal of q", Sec. V-B1). Precision is chosen from the maximum dividend
// width so the reciprocal estimate is off by at most one, which a single
// correction step repairs.
type Reciprocal struct {
	d         Nat  // divisor
	recip     Nat  // floor(2^prec / d)
	prec      uint // fixed-point precision in bits
	maxDivBit int  // maximum dividend bit length the precision supports
}

// NewReciprocal prepares a reciprocal of d for dividends of at most
// maxDividendBits bits. It panics if d is zero.
func NewReciprocal(d Nat, maxDividendBits int) *Reciprocal {
	if d.IsZero() {
		panic("mp: reciprocal of zero")
	}
	// With prec = maxDividendBits + 1 the estimate
	// q̂ = floor(x · floor(2^prec/d) / 2^prec) satisfies q-1 ≤ q̂ ≤ q:
	// the truncation of the reciprocal loses < 1/d per unit, so the product
	// underestimates x/d by < x/2^prec + 1 ≤ 2 quotient ulps before the
	// outer floor, and by ≤ 1 after it.
	prec := uint(maxDividendBits + 1)
	one := NewNat(1).Shl(prec)
	return &Reciprocal{
		d:         d.Clone(),
		recip:     one.Div(d),
		prec:      prec,
		maxDivBit: maxDividendBits,
	}
}

// DivMod returns (x / d, x mod d) via reciprocal multiplication. It panics if
// x exceeds the dividend width the reciprocal was prepared for.
func (r *Reciprocal) DivMod(x Nat) (Nat, Nat) {
	if x.BitLen() > r.maxDivBit {
		panic("mp: reciprocal dividend too wide")
	}
	q := x.Mul(r.recip).Shr(r.prec)
	rem := x.Sub(q.Mul(r.d))
	// The estimate is at most one below the true quotient.
	if rem.Cmp(r.d) >= 0 {
		q = q.AddWord(1)
		rem = rem.Sub(r.d)
	}
	return q, rem
}

// DivRound returns round(x / d), rounding ties up. (For the odd divisors used
// in this repository ties cannot occur.)
func (r *Reciprocal) DivRound(x Nat) Nat {
	q, rem := r.DivMod(x)
	if rem.Shl(1).Cmp(r.d) >= 0 {
		q = q.AddWord(1)
	}
	return q
}
