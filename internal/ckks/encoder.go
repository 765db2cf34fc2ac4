package ckks

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/poly"
)

// Encoder maps vectors of N/2 real slots to ring elements through the
// canonical embedding: the slot values are the evaluations of the message
// polynomial at the primitive 2N-th roots of unity ζ^{5^j}, scaled by Δ and
// rounded to integers. Evaluation points indexed by powers of 5 make every
// slot rotation a Galois automorphism x ↦ x^{5^r} — the same automorphism
// machinery the BFV binding uses for its batch rotations.
//
// The transform is the HEAAN-style "special FFT": an N/2-point FFT over the
// odd powers ζ^{5^j}, O(n log n) against the O(n²) textbook embedding
// (which the tests cross-check it against at small n).
//
// An Encoder owns scratch and is single-client, like the evaluators.
type Encoder struct {
	params   *Params
	slots    int
	m        int          // 2N, the root order
	rotGroup []int        // 5^j mod 2N
	ksiPows  []complex128 // ksiPows[k] = exp(2πi·k/M)
	buf      []complex128
}

// NewEncoder builds an encoder for params.
func NewEncoder(params *Params) *Encoder {
	n := params.N()
	e := &Encoder{
		params:   params,
		slots:    n / 2,
		m:        2 * n,
		rotGroup: make([]int, n/2),
		ksiPows:  make([]complex128, 2*n+1),
		buf:      make([]complex128, n/2),
	}
	g := 1
	for j := range e.rotGroup {
		e.rotGroup[j] = g
		g = g * 5 % e.m
	}
	for k := range e.ksiPows {
		angle := 2 * math.Pi * float64(k) / float64(e.m)
		e.ksiPows[k] = cmplx.Rect(1, angle)
	}
	return e
}

// arrayBitReverse permutes vals into bit-reversed index order.
func arrayBitReverse(vals []complex128) {
	size := len(vals)
	for i, j := 1, 0; i < size; i++ {
		bit := size >> 1
		for ; j >= bit; bit >>= 1 {
			j -= bit
		}
		j += bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// fftSpecial is the decode-direction transform: coefficients → slot values.
func (e *Encoder) fftSpecial(vals []complex128) {
	size := len(vals)
	arrayBitReverse(vals)
	for len := 2; len <= size; len <<= 1 {
		for i := 0; i < size; i += len {
			lenh := len >> 1
			lenq := len << 2
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * (e.m / lenq)
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// fftSpecialInv is the encode-direction transform: slot values →
// coefficients (scaled by 1/size).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	size := len(vals)
	for len := size; len >= 1; len >>= 1 {
		for i := 0; i < size; i += len {
			lenh := len >> 1
			lenq := len << 2
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * (e.m / lenq)
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	arrayBitReverse(vals)
	inv := complex(1/float64(size), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// Encode embeds vals (up to N/2 slots; missing slots are zero) at the given
// level and scale. Scaled magnitudes must stay below 2^62 so the rounded
// coefficients fit the signed-word reduction.
func (e *Encoder) Encode(vals []float64, level int, scale float64) (*Plaintext, error) {
	if len(vals) > e.slots {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(vals), e.slots)
	}
	if level < 0 || level > e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: encode level %d outside chain (L=%d)", level, e.params.MaxLevel())
	}
	if !(scale > 0) {
		return nil, fmt.Errorf("ckks: encode scale must be positive, got %g", scale)
	}
	for i := range e.buf {
		e.buf[i] = 0
	}
	for i, v := range vals {
		e.buf[i] = complex(v, 0)
	}
	e.fftSpecialInv(e.buf)

	pt := &Plaintext{
		Value: poly.NewRNSPoly(e.params.QMods[:level+1], e.params.N()),
		Scale: scale,
	}
	for i, c := range e.buf {
		re := math.Round(scale * real(c))
		im := math.Round(scale * imag(c))
		if math.Abs(re) >= math.Exp2(62) || math.Abs(im) >= math.Exp2(62) {
			return nil, fmt.Errorf("ckks: scaled coefficient %g overflows the encoding range", math.Max(math.Abs(re), math.Abs(im)))
		}
		for j := range pt.Value.Rows {
			m := pt.Value.Rows[j].Mod
			pt.Value.Rows[j].Coeffs[i] = m.FromSigned(int64(re))
			pt.Value.Rows[j].Coeffs[i+e.slots] = m.FromSigned(int64(im))
		}
	}
	return pt, nil
}

// Decode recovers the slot values of pt (real parts; DecodeComplex keeps
// both components).
func (e *Encoder) Decode(pt *Plaintext) []float64 {
	vals := e.DecodeComplex(pt)
	out := make([]float64, e.slots)
	for i, c := range vals {
		out[i] = real(c)
	}
	return out
}

// DecodeComplex recovers the complex slot values of pt.
func (e *Encoder) DecodeComplex(pt *Plaintext) []complex128 {
	basis := e.params.BasisLevel[pt.Level()]
	k := basis.K()
	res := make([]uint64, k)
	coeffs := make([]float64, e.params.N())
	for c := range coeffs {
		for j := 0; j < k; j++ {
			res[j] = pt.Value.Rows[j].Coeffs[c]
		}
		// Rounded to the nearest float64; the accuracy flag does not matter,
		// the message occupies the top bits.
		coeffs[c], _ = basis.ReconstructCentered(res).Float64()
	}
	vals := make([]complex128, e.slots)
	for i := range vals {
		vals[i] = complex(coeffs[i]/pt.Scale, coeffs[i+e.slots]/pt.Scale)
	}
	e.fftSpecial(vals)
	return vals
}
