package rns

import (
	"math"
	"math/bits"
)

// frac128 is a 128-bit binary fraction representing a value in [0, 1) as
// (hi·2^64 + lo) / 2^128. The HPS approximate-CRT routines (paper Sec. IV-C,
// IV-D) replace floating-point division by q_i with multiplication by such
// fixed-point reciprocals. The paper stores reciprocals with 89 bits after
// the point (error < 2^-80); we keep 128 bits, giving error < 2^-95 after
// accumulating 13 30-bit terms.
type frac128 struct {
	hi, lo uint64
}

// fracDiv returns the 128-bit fraction floor(num·2^128/den) / 2^128, i.e. the
// truncated fixed-point expansion of num/den. It requires num < den and
// panics otherwise (the quotient would not fit in a fraction).
func fracDiv(num, den uint64) frac128 {
	if num >= den {
		panic("rns: fracDiv requires num < den")
	}
	hi, rem := bits.Div64(num, 0, den)
	lo, _ := bits.Div64(rem, 0, den)
	return frac128{hi: hi, lo: lo}
}

// acc192 is a 192-bit accumulator with 128 fractional bits. It accumulates
// products x·f where x is a word and f a frac128, exactly, then rounds to the
// nearest integer. It mirrors the accumulate-and-round step of the paper's
// HPS Lift and Scale blocks.
type acc192 struct {
	w0, w1, w2 uint64 // value = w2·2^128 + w1·2^64 + w0, scaled by 2^-128
}

// addMul accumulates x·f into the accumulator.
func (a *acc192) addMul(x uint64, f frac128) {
	// x·f = x·hi·2^64 + x·lo, a 192-bit quantity aligned with the
	// accumulator's fractional limbs.
	hi1, lo1 := bits.Mul64(x, f.lo) // contributes to (w1:w0)
	hi2, lo2 := bits.Mul64(x, f.hi) // contributes to (w2:w1)

	var c uint64
	a.w0, c = bits.Add64(a.w0, lo1, 0)
	a.w1, c = bits.Add64(a.w1, hi1, c)
	a.w2 += c

	a.w1, c = bits.Add64(a.w1, lo2, 0)
	a.w2 += hi2 + c
}

// round returns the accumulator rounded to the nearest integer (ties round
// up).
func (a *acc192) round() uint64 {
	if a.w1 >= 1<<63 {
		return a.w2 + 1
	}
	return a.w2
}

// fracLanes estimates the fraction sums of the HPS stripes — Σ y_i/q_i of
// Lift, Σ x_i·r_i/q_i of Scale — across the lanes of a stripe in float64:
// lane c accumulates Σ fl(float64(x_i[c])·c_i) with c_i = fl(f_i), on the
// AVX2 lane where the CPU has it. roundInto rounds every lane half up and
// flags each one whose estimate lies within eps of a tie; exactLanes
// recomputes those in acc192. Outside the band the estimate rounds as acc192
// does (DESIGN §4b derives eps), so the pair is word for word acc192's
// rounding on every input of canonical residues.
//
// Every lane is zero between stripes: zero-initialized with the stripe
// scratch, and cleared by the roundInto that consumes it.
type fracLanes struct {
	s [liftStripe]float64
}

// flaggedLane is the quotient roundInto writes for a lane it leaves to
// exactLanes. No estimate reaches it: every sum is below 2^52 (a Lift sum is
// below k, and NewScaleRounder holds k·max q_i below 2^52).
const flaggedLane = ^uint64(0)

// fracEps is the tie band of a rounded sum of k terms x_i·f_i with
// f_i ∈ [0, 1) and every term below m: (k+1)²·m·2^-53, exact in float64
// while (k+1)²·m < 2^53 (DESIGN §4b).
func fracEps(k int, m uint64) float64 {
	return float64((k+1)*(k+1)) * float64(m) * 0x1p-53
}

// addRows accumulates Σ_i float64(x.row(i)[c])·f[i] into lane c, for every
// lane of the rows, two rows a pass; an odd last row pairs with itself at
// weight 0, which adds +0 exactly. Every row word must be below 2^52, as a
// canonical residue is.
func (a *fracLanes) addRows(f []float64, x *stripeRows) {
	s := a.s[:x.w]
	for i := 0; i < len(f); i += 2 {
		x1, f1 := x.row(i), f[i]
		x2, f2 := x1, 0.0
		if i+1 < len(f) {
			x2, f2 = x.row(i+1), f[i+1]
		}
		x1, x2 = x1[:len(s)], x2[:len(s)]
		for c := fracAddMul2SIMD(s, x1, x2, f1, f2); c < len(s); c++ {
			// The explicit conversions keep each product rounded on its own,
			// as the vector lane rounds it.
			s[c] += float64(float64(x1[c]) * f1)
			s[c] += float64(float64(x2[c]) * f2)
		}
	}
}

// roundInto writes lane c rounded to the nearest integer, ties up, into
// v[c], for every c < len(v) — or flaggedLane where the estimate is within
// eps of a tie — clears the lane, and reports whether it flagged any.
func (a *fracLanes) roundInto(v []uint64, eps float64) (flagged bool) {
	s := a.s[:len(v)]
	c, flagged := fracRoundSIMD(v, s, eps)
	for ; c < len(v); c++ {
		fl := math.Floor(s[c])
		d := s[c] - fl - 0.5
		s[c] = 0
		switch {
		case math.Abs(d) <= eps:
			v[c], flagged = flaggedLane, true
		case d > 0:
			v[c] = uint64(fl) + 1
		default:
			v[c] = uint64(fl)
		}
	}
	return flagged
}

// exactLanes settles the lanes of v that roundInto flagged: lane c becomes
// Σ x.row(i)[c]·f[i] summed and rounded in acc192, the value the estimate
// stands in for.
func exactLanes(v []uint64, f []frac128, x *stripeRows) {
	for c, vc := range v {
		if vc != flaggedLane {
			continue
		}
		var a acc192
		for i, fi := range f {
			a.addMul(x.row(i)[c], fi)
		}
		v[c] = a.round()
	}
}
