// Package poly implements negacyclic polynomial arithmetic over
// Z_q[x]/(x^n + 1) for the word-sized RNS prime moduli, including the
// iterative number-theoretic transform (NTT) the paper's RPAU butterfly
// cores compute (Alg. 1 of the paper), with precomputed twiddle-factor ROMs
// (the paper stores twiddle factors in on-chip memory to eliminate pipeline
// bubbles, Sec. V-A4).
package poly

import (
	"fmt"
	"math/bits"

	"repro/internal/ring"
)

// NTTTable holds precomputed twiddle factors for a negacyclic NTT of length
// n over one prime modulus: powers of ψ (a primitive 2n-th root of unity) in
// bit-reversed order for the forward transform, powers of ψ^-1 for the
// inverse, and n^-1 for the final scaling. This is the software analogue of
// the paper's twiddle-factor ROM.
type NTTTable struct {
	Mod ring.Modulus
	N   int

	Psi    uint64 // primitive 2n-th root of unity
	PsiInv uint64 // ψ^-1 mod q
	NInv   uint64 // n^-1 mod q

	psiRev    []uint64 // ψ^bitrev(i), i = 0..n-1 (forward twiddles)
	psiInvRev []uint64 // ψ^-bitrev(i) (inverse twiddles)

	// Shoup companions of the twiddle ROMs: floor(w·2^64/q) per twiddle w,
	// so each butterfly multiplies by a ROM constant with two machine
	// multiplications and a deferred subtraction (Harvey's lazy butterfly).
	// The hardware stores the same second word next to each twiddle.
	psiRevShoup    []uint64
	psiInvRevShoup []uint64
	nInvShoup      uint64

	// Last inverse level's twiddle with n^-1 folded in (ψ^-bitrev(1)·n^-1),
	// so the final scaling costs no extra pass.
	psiInvN      uint64
	psiInvNShoup uint64
}

// NewNTTTable computes the twiddle ROM for degree n (a power of two ≥ 2)
// over modulus m. The modulus must satisfy q ≡ 1 (mod 2n).
func NewNTTTable(m ring.Modulus, n int) (*NTTTable, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("poly: degree %d is not a power of two ≥ 2", n)
	}
	if (m.Q-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("poly: modulus %d does not support a %d-point negacyclic NTT", m.Q, n)
	}
	psi := ring.RootOfUnity(m, uint64(2*n))
	t := &NTTTable{
		Mod:    m,
		N:      n,
		Psi:    psi,
		PsiInv: m.Inv(psi),
		NInv:   m.Inv(uint64(n)),
	}
	t.psiRev = make([]uint64, n)
	t.psiInvRev = make([]uint64, n)
	logN := uint(bits.Len(uint(n)) - 1)
	fwd, inv := uint64(1), uint64(1)
	powsF := make([]uint64, n)
	powsI := make([]uint64, n)
	for i := 0; i < n; i++ {
		powsF[i], powsI[i] = fwd, inv
		fwd = m.Mul(fwd, psi)
		inv = m.Mul(inv, t.PsiInv)
	}
	t.psiRevShoup = make([]uint64, n)
	t.psiInvRevShoup = make([]uint64, n)
	for i := 0; i < n; i++ {
		r := bitReverse(uint(i), logN)
		t.psiRev[i] = powsF[r]
		t.psiInvRev[i] = powsI[r]
		t.psiRevShoup[i] = m.ShoupPrecomp(powsF[r])
		t.psiInvRevShoup[i] = m.ShoupPrecomp(powsI[r])
	}
	t.nInvShoup = m.ShoupPrecomp(t.NInv)
	t.psiInvN = m.Mul(t.psiInvRev[1], t.NInv)
	t.psiInvNShoup = m.ShoupPrecomp(t.psiInvN)
	return t, nil
}

func bitReverse(x uint, nbits uint) uint {
	var r uint
	for i := uint(0); i < nbits; i++ {
		r = r<<1 | (x>>i)&1
	}
	return r
}

// Forward transforms a (length n, coefficients < q) in place into the NTT
// domain, using the Cooley–Tukey decimation-in-time butterfly with the ψ
// powers merged in (so no separate pre-multiplication is needed for the
// negacyclic wrap). Output is in standard order and fully reduced (< q).
//
// The butterflies are lazy: coefficients are allowed to drift up to 4q
// between levels, each butterfly spends a single conditional subtraction of
// 2q on its even leg, and the twiddle product is a Shoup multiplication
// (two bits.Mul64-class multiplies, no division). A final pass reduces the
// result to the canonical range, so the output is bit-identical to the
// former Barrett implementation.
func (t *NTTTable) Forward(a []uint64) {
	if len(a) != t.N {
		panic("poly: NTT length mismatch")
	}
	if t.forwardSIMD(a, a) {
		return
	}
	t.forwardStages(a, 1, t.N>>1)
}

// ForwardFromInto transforms src (coefficients < 2q) into dst in one fused
// walk: the first butterfly level reads src and writes dst, and the remaining
// levels run in place in dst. This replaces the copy-then-transform pattern
// of the lift path — the identity half of the base extension is exactly a row
// copy followed by an NTT — with a single pass, and is bit-identical to
// reduce + copy + Forward. The wider input is what the lazy levels carry
// anyway: every level takes legs below 4q, and the first level's output
// u + v and u − v + 2q, with u < 2q and the Shoup product v < 2q for any
// 64-bit x, stays below 4q — on the scalar path, which skips the first
// level's 2q guard on u, and on the vector lane, which keeps it; the final
// canonical reduction then leaves the transform of src mod q. So a gadget
// digit below q_i transforms straight into the row of any q_j ≥ q_i/2
// (hwsim's fused key-switch loop). dst and src must not overlap unless
// identical.
func (t *NTTTable) ForwardFromInto(dst, src []uint64) {
	if len(dst) != t.N || len(src) != t.N {
		panic("poly: NTT length mismatch")
	}
	if t.forwardSIMD(dst, src) {
		return
	}
	t.forwardFromIntoGeneric(dst, src)
}

// forwardFromIntoGeneric is the scalar ForwardFromInto: the path of every
// build without the vector kernels and of every table they do not take, and
// the reference the differential tests hold them to.
func (t *NTTTable) forwardFromIntoGeneric(dst, src []uint64) {
	n := t.N
	if n == 2 {
		copy(dst, src)
		t.forwardStages(dst, 1, 1)
		return
	}
	q := t.Mod.Q
	twoQ := 2 * q
	span := n >> 1
	w := t.psiRev[1]
	ws := t.psiRevShoup[1]
	slo := src[:span:span]
	shi := src[span:][:span:span]
	dlo := dst[:span:span]
	dhi := dst[span:][:span:span]
	for j := range slo {
		u := slo[j]
		x := shi[j]
		qhat, _ := bits.Mul64(x, ws)
		v := x*w - qhat*q
		dlo[j] = u + v
		dhi[j] = u - v + twoQ
	}
	t.forwardStages(dst, 2, span>>1)
}

// forwardStages runs the Cooley–Tukey levels from the given (stage, span)
// down through the folded canonical-reduction last level. The two tail levels
// (span 2 and span 1) run as flat sweeps over the whole array — at those
// spans the general path's per-group sub-slicing costs more than the
// butterflies themselves.
func (t *NTTTable) forwardStages(a []uint64, startStage, startSpan int) {
	a = a[:t.N:t.N]
	q := t.Mod.Q
	twoQ := 2 * q
	span := startSpan // butterfly distance
	for stage := startStage; span > 2; stage <<= 1 {
		for group := 0; group < stage; group++ {
			w := t.psiRev[stage+group]
			ws := t.psiRevShoup[stage+group]
			base := 2 * span * group
			lo := a[base : base+span : base+span]
			hi := a[base+span : base+2*span][:span:span]
			// Two butterflies per iteration; span ≥ 4 is even, so no tail.
			for j := 0; j+1 < len(lo); j += 2 {
				// Invariant: lo[j], hi[j] < 4q (< q on entry).
				u0 := lo[j]
				if u0 >= twoQ {
					u0 -= twoQ
				}
				x0 := hi[j]
				qhat0, _ := bits.Mul64(x0, ws)
				v0 := x0*w - qhat0*q // Shoup lazy product, < 2q
				u1 := lo[j+1]
				if u1 >= twoQ {
					u1 -= twoQ
				}
				x1 := hi[j+1]
				qhat1, _ := bits.Mul64(x1, ws)
				v1 := x1*w - qhat1*q
				lo[j] = u0 + v0
				hi[j] = u0 - v0 + twoQ
				lo[j+1] = u1 + v1
				hi[j+1] = u1 - v1 + twoQ
			}
		}
		span >>= 1
	}
	if span == 2 {
		// Fused radix-4 tail: the last two levels (spans 2 and 1) in one
		// sweep, keeping each group's four lanes in registers between the
		// levels and folding the canonical reduction into the stores. Per
		// lane the operation sequence is exactly the unfused levels'.
		stage := t.N >> 2
		tw2 := t.psiRev[stage : 2*stage : 2*stage]
		tw2S := t.psiRevShoup[stage : 2*stage : 2*stage]
		tw1 := t.psiRev[2*stage : 4*stage : 4*stage]
		tw1S := t.psiRevShoup[2*stage : 4*stage : 4*stage]
		for group := 0; group < stage; group++ {
			w := tw2[group]
			ws := tw2S[group]
			base := 4 * group
			u0 := a[base]
			if u0 >= twoQ {
				u0 -= twoQ
			}
			x0 := a[base+2]
			qhat0, _ := bits.Mul64(x0, ws)
			v0 := x0*w - qhat0*q
			u1 := a[base+1]
			if u1 >= twoQ {
				u1 -= twoQ
			}
			x1 := a[base+3]
			qhat1, _ := bits.Mul64(x1, ws)
			v1 := x1*w - qhat1*q
			b0 := u0 + v0
			b2 := u0 - v0 + twoQ
			b1 := u1 + v1
			b3 := u1 - v1 + twoQ
			// Span-1 butterflies on (b0,b1) and (b2,b3).
			wA := tw1[2*group]
			wAS := tw1S[2*group]
			if b0 >= twoQ {
				b0 -= twoQ
			}
			qhatA, _ := bits.Mul64(b1, wAS)
			vA := b1*wA - qhatA*q
			wB := tw1[2*group+1]
			wBS := tw1S[2*group+1]
			if b2 >= twoQ {
				b2 -= twoQ
			}
			qhatB, _ := bits.Mul64(b3, wBS)
			vB := b3*wB - qhatB*q
			a[base] = reduceFrom4Q(b0+vA, q, twoQ)
			a[base+1] = reduceFrom4Q(b0-vA+twoQ, q, twoQ)
			a[base+2] = reduceFrom4Q(b2+vB, q, twoQ)
			a[base+3] = reduceFrom4Q(b2-vB+twoQ, q, twoQ)
		}
		return
	}
	// Last level (span 1) with the canonical reduction folded in — reached
	// directly only when the caller enters at span 1 (n = 2, or the fused
	// first level of ForwardFromInto at n = 4).
	stage := t.N >> 1
	tw := t.psiRev[stage : 2*stage : 2*stage]
	twS := t.psiRevShoup[stage : 2*stage : 2*stage]
	for group := 0; group < stage; group++ {
		w := tw[group]
		ws := twS[group]
		u := a[2*group]
		if u >= twoQ {
			u -= twoQ
		}
		x := a[2*group+1]
		qhat, _ := bits.Mul64(x, ws)
		v := x*w - qhat*q
		a[2*group] = reduceFrom4Q(u+v, q, twoQ)
		a[2*group+1] = reduceFrom4Q(u-v+twoQ, q, twoQ)
	}
}

// reduceFrom4Q maps a lazy value < 4q to the canonical range [0, q).
func reduceFrom4Q(x, q, twoQ uint64) uint64 {
	if x >= twoQ {
		x -= twoQ
	}
	if x >= q {
		x -= q
	}
	return x
}

// Inverse transforms a (in NTT domain, standard order) back to coefficient
// representation in place, using the Gentleman–Sande decimation-in-frequency
// butterfly and a final scaling by n^-1. Like Forward it runs lazily — sums
// stay < 2q via one conditional subtraction, the odd leg is a Shoup product
// of the difference — and the n^-1 scaling performs the final reduction, so
// the output is fully reduced and bit-identical to the former Barrett path.
func (t *NTTTable) Inverse(a []uint64) {
	if len(a) != t.N {
		panic("poly: NTT length mismatch")
	}
	if t.inverseSIMD(a) {
		return
	}
	t.inverseGeneric(a)
}

// inverseGeneric is the scalar Inverse, kept as forwardFromIntoGeneric is.
func (t *NTTTable) inverseGeneric(a []uint64) {
	a = a[:t.N:t.N]
	q := t.Mod.Q
	twoQ := 2 * q
	// Fused radix-4 head: the first two levels (spans 1 and 2) in one sweep,
	// mirroring forwardStages' fused tail — each group's four lanes stay in
	// registers between the levels. Per lane the operation sequence is
	// exactly the unfused levels'. For n = 4 only the span-1 half applies and
	// runs unfused; for n = 2 the folded-scaling block below is the whole
	// transform.
	if t.N == 4 {
		tw := t.psiInvRev[2:4:4]
		twS := t.psiInvRevShoup[2:4:4]
		for group := 0; group < 2; group++ {
			w := tw[group]
			ws := twS[group]
			u := a[2*group]
			v := a[2*group+1]
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			a[2*group] = s
			d := u - v + twoQ
			qhat, _ := bits.Mul64(d, ws)
			a[2*group+1] = d*w - qhat*q
		}
	}
	if t.N >= 8 {
		stage := t.N >> 2
		tw2 := t.psiInvRev[stage : 2*stage : 2*stage]
		tw2S := t.psiInvRevShoup[stage : 2*stage : 2*stage]
		tw1 := t.psiInvRev[2*stage : 4*stage : 4*stage]
		tw1S := t.psiInvRevShoup[2*stage : 4*stage : 4*stage]
		for group := 0; group < stage; group++ {
			base := 4 * group
			// Span-1 butterflies on (a0,a1) and (a2,a3).
			wA := tw1[2*group]
			wAS := tw1S[2*group]
			u0 := a[base]
			v0 := a[base+1]
			b0 := u0 + v0
			if b0 >= twoQ {
				b0 -= twoQ
			}
			dA := u0 - v0 + twoQ
			qhatA, _ := bits.Mul64(dA, wAS)
			b1 := dA*wA - qhatA*q
			wB := tw1[2*group+1]
			wBS := tw1S[2*group+1]
			u1 := a[base+2]
			v1 := a[base+3]
			b2 := u1 + v1
			if b2 >= twoQ {
				b2 -= twoQ
			}
			dB := u1 - v1 + twoQ
			qhatB, _ := bits.Mul64(dB, wBS)
			b3 := dB*wB - qhatB*q
			// Span-2 butterflies on (b0,b2) and (b1,b3).
			w := tw2[group]
			ws := tw2S[group]
			s0 := b0 + b2
			if s0 >= twoQ {
				s0 -= twoQ
			}
			d0 := b0 - b2 + twoQ
			qhat0, _ := bits.Mul64(d0, ws)
			s1 := b1 + b3
			if s1 >= twoQ {
				s1 -= twoQ
			}
			d1 := b1 - b3 + twoQ
			qhat1, _ := bits.Mul64(d1, ws)
			a[base] = s0
			a[base+2] = d0*w - qhat0*q
			a[base+1] = s1
			a[base+3] = d1*w - qhat1*q
		}
	}
	span := 4
	for stage := t.N >> 3; stage >= 2; stage >>= 1 {
		for group := 0; group < stage; group++ {
			w := t.psiInvRev[stage+group]
			ws := t.psiInvRevShoup[stage+group]
			base := 2 * span * group
			lo := a[base : base+span : base+span]
			hi := a[base+span : base+2*span][:span:span]
			// Two butterflies per iteration; span ≥ 4 is even, so no tail.
			for j := 0; j+1 < len(lo); j += 2 {
				// Invariant: lo[j], hi[j] < 2q (< q on entry).
				u0 := lo[j]
				v0 := hi[j]
				s0 := u0 + v0
				if s0 >= twoQ {
					s0 -= twoQ
				}
				d0 := u0 - v0 + twoQ // < 4q
				qhat0, _ := bits.Mul64(d0, ws)
				u1 := lo[j+1]
				v1 := hi[j+1]
				s1 := u1 + v1
				if s1 >= twoQ {
					s1 -= twoQ
				}
				d1 := u1 - v1 + twoQ
				qhat1, _ := bits.Mul64(d1, ws)
				lo[j] = s0
				hi[j] = d0*w - qhat0*q // < 2q
				lo[j+1] = s1
				hi[j+1] = d1*w - qhat1*q
			}
		}
		span <<= 1
	}
	// Last level (stage 1): the even leg is scaled by n^-1, the odd leg by
	// the folded twiddle ψ^-bitrev(1)·n^-1; both legs land fully reduced.
	half := t.N >> 1
	nInv, nInvS := t.NInv, t.nInvShoup
	wN, wNS := t.psiInvN, t.psiInvNShoup
	lo := a[:half:half]
	hi := a[half:][:half:half]
	for j := range lo {
		u := lo[j]
		v := hi[j]
		s := u + v // < 4q: fine for a Shoup product
		qhat, _ := bits.Mul64(s, nInvS)
		r := s*nInv - qhat*q
		if r >= q {
			r -= q
		}
		lo[j] = r
		d := u - v + twoQ
		qhat, _ = bits.Mul64(d, wNS)
		r = d*wN - qhat*q
		if r >= q {
			r -= q
		}
		hi[j] = r
	}
}

// ForwardTwiddle returns forward twiddle ψ^bitrev(i); the hardware simulator
// reads the ROM through this accessor.
func (t *NTTTable) ForwardTwiddle(i int) uint64 { return t.psiRev[i] }
