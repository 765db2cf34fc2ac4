package rns

import "math/bits"

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

// fracLanes is acc192 across the lanes of a stripe, its three limbs held in
// parallel arrays: lane c accumulates Σ x_i[c]·f_i exactly and rounds to the
// nearest integer, ties up. It is the one fraction kernel of the HPS stripes
// — Σ y_i/q_i of Lift and Σ x_i·r_i/q_i of Scale — word for word acc192's
// limb schedule, so a lane rounds exactly as acc192 would.
type fracLanes struct {
	w0, w1, w2 [liftStripe]uint64
}

// reset clears the first w lanes.
func (a *fracLanes) reset(w int) {
	clear(a.w0[:w])
	clear(a.w1[:w])
	clear(a.w2[:w])
}

// addMul accumulates x[c]·f into lane c, for every c < len(x).
func (a *fracLanes) addMul(x []uint64, f frac128) {
	w0, w1, w2 := a.w0[:len(x)], a.w1[:len(x)], a.w2[:len(x)]
	for c, xc := range x {
		hi1, lo1 := bits.Mul64(xc, f.lo)
		hi2, lo2 := bits.Mul64(xc, f.hi)
		var cc uint64
		w0[c], cc = bits.Add64(w0[c], lo1, 0)
		w1[c], cc = bits.Add64(w1[c], hi1, cc)
		w2[c] += cc
		w1[c], cc = bits.Add64(w1[c], lo2, 0)
		w2[c] += hi2 + cc
	}
}

// roundInto writes lane c rounded to the nearest integer into v[c], for
// every c < len(v).
func (a *fracLanes) roundInto(v []uint64) {
	w1, w2 := a.w1[:len(v)], a.w2[:len(v)]
	for c := range v {
		v[c] = w2[c] + w1[c]>>63
	}
}
