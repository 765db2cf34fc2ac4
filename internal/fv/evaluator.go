package fv

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
)

// Evaluator computes on ciphertexts: the cloud-side Add and Mult of the
// paper's Sec. II-B, with Mult implementing the full Fig. 2 pipeline. All
// RNS-limb loops (NTT rows, tensor products, relinearization MACs) fan out
// across the parameter set's goroutine pool, mirroring the paper's parallel
// RPAUs; results are bit-identical at any pool size.
//
// An evaluator can carry an obs.Tracer (SetTracer) and an obs.Registry
// (SetMetrics). With a tracer attached, Mul emits a span tree mirroring the
// Fig. 2 stages — lift, ntt, tensor, intt, scale, then relin with its
// decomp/sop/intt/combine children — so a wall-clock profile of the software
// pipeline lines up stage-for-stage with the simulator's cycle attribution.
// Both default to nil: the disabled state costs one nil-check per stage.
//
// An evaluator owns reusable scratch buffers (see evalScratch), so the
// multiply paths allocate nothing in steady state — and, for the same reason,
// a single Evaluator must not be used from multiple goroutines at once.
// Create one per worker (the engine does).
type Evaluator struct {
	params  *Params
	variant LiftScaleVariant
	ops     poly.PoolOps
	tracer  *obs.Tracer
	metrics *obs.Registry
	scr     evalScratch
}

// NewEvaluator returns an evaluator using the HPS lift/scale variant.
func NewEvaluator(params *Params) *Evaluator {
	return &Evaluator{params: params, variant: HPS, ops: poly.PoolOps{Pool: params.Pool}}
}

// NewEvaluatorVariant selects the lift/scale variant explicitly (the
// traditional variant reproduces the paper's slower architecture).
func NewEvaluatorVariant(params *Params, v LiftScaleVariant) *Evaluator {
	return &Evaluator{params: params, variant: v, ops: poly.PoolOps{Pool: params.Pool}}
}

// Variant returns the lift/scale variant in use.
func (ev *Evaluator) Variant() LiftScaleVariant { return ev.variant }

// SetTracer attaches (or, with nil, detaches) a span tracer. Not safe to
// call concurrently with evaluation.
func (ev *Evaluator) SetTracer(t *obs.Tracer) { ev.tracer = t }

// SetMetrics attaches a registry; the evaluator counts operations under
// "fv.<op>" names.
func (ev *Evaluator) SetMetrics(r *obs.Registry) { ev.metrics = r }

func (ev *Evaluator) count(name string) {
	if ev.metrics != nil {
		ev.metrics.Counter(name).Add(1)
	}
}

// Add returns a + b (FV.Add: element-wise polynomial addition).
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	ev.count("fv.add")
	ae, be := rlwe.PadElements(a.Els, b.Els)
	out := NewCiphertext(ev.params, len(ae))
	for i := range ae {
		ev.ops.AddInto(ae[i], be[i], out.Els[i])
	}
	return out
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	ae, be := rlwe.PadElements(a.Els, b.Els)
	out := NewCiphertext(ev.params, len(ae))
	for i := range ae {
		ev.ops.SubInto(ae[i], be[i], out.Els[i])
	}
	return out
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	out := NewCiphertext(ev.params, len(a.Els))
	for i := range a.Els {
		ev.ops.NegInto(a.Els[i], out.Els[i])
	}
	return out
}

// AddPlain returns ct + Δ·m for a plaintext m.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	out := ct.Clone()
	addDeltaM(ev.params, pt, out.Els[0])
	return out
}

// MulPlain returns ct·m̃ for a plaintext m (polynomial product with the
// unscaled message polynomial; noise grows by a factor ≈ t·n·‖m‖).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	p := ev.params
	mHat := poly.NewRNSPoly(p.QMods, p.N())
	t := p.Cfg.T
	for i, m := range p.QMods {
		for c, mc := range pt.Coeffs {
			mHat.Rows[i].Coeffs[c] = m.Reduce(mc % t)
		}
	}
	p.TrQ.Forward(mHat)
	out := NewCiphertext(p, len(ct.Els))
	for i := range ct.Els {
		tmp := ct.Els[i].Clone()
		p.TrQ.Forward(tmp)
		ev.ops.MulInto(tmp, mHat, tmp)
		p.TrQ.Inverse(tmp)
		out.Els[i] = tmp
	}
	return out
}

// MulNoRelin computes the degree-2 product of two degree-1 ciphertexts:
// Lift q→Q of the four input polynomials, NTT-domain tensor product over the
// extended basis, inverse transform, and Scale Q→q of the three outputs
// (paper Fig. 2 without the final ReLin).
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) *Ciphertext {
	sc := ev.tracer.Start("mul_no_relin")
	defer sc.End()
	out := NewCiphertext(ev.params, 3)
	ev.mulNoRelinInto(sc, a, b, out)
	return out
}

// MulNoRelinInto is MulNoRelin writing into a caller-owned degree-2
// ciphertext (three q-basis elements): with out reused across calls the
// operation allocates nothing in steady state. out must not alias a or b.
func (ev *Evaluator) MulNoRelinInto(a, b, out *Ciphertext) {
	sc := ev.tracer.Start("mul_no_relin")
	defer sc.End()
	ev.mulNoRelinInto(sc, a, b, out)
}

func (ev *Evaluator) mulNoRelinInto(parent obs.Scope, a, b, out *Ciphertext) {
	p := ev.params
	if len(a.Els) != 2 || len(b.Els) != 2 {
		panic(fmt.Sprintf("fv: MulNoRelin needs degree-1 ciphertexts, got %d and %d elements", len(a.Els), len(b.Els)))
	}
	if len(out.Els) != 3 {
		panic(fmt.Sprintf("fv: MulNoRelinInto needs a degree-2 destination, got %d elements", len(out.Els)))
	}
	ev.count("fv.mul_no_relin")
	s := ev.scratch()

	// Lift q → Q (Fig. 2, left) — but only the p-basis target rows are
	// computed here, straight into scratch. The kept q rows never move: the
	// NTT stage below transforms them out of the inputs in the same pass that
	// would have walked them anyway.
	st := parent.Child("lift")
	ev.liftTargets(a.Els[0], s.a0)
	ev.liftTargets(a.Els[1], s.a1)
	ev.liftTargets(b.Els[0], s.b0)
	ev.liftTargets(b.Els[1], s.b1)
	st.End()

	// NTT over the full basis, fused with the q-row move (nttLiftTask).
	st = parent.Child("ntt")
	ev.forwardLifted(s.a0, a.Els[0])
	ev.forwardLifted(s.a1, a.Els[1])
	ev.forwardLifted(s.b0, b.Els[0])
	ev.forwardLifted(s.b1, b.Els[1])
	st.End()

	// Tensor product: c̃0 = a0·b0, c̃1 = a0·b1 + a1·b0, c̃2 = a1·b1 — all
	// three rows of each prime in one fused walk. The work estimate stays
	// n·rows (one output sweep), the same threshold the unfused four-pass
	// schedule presented to the pool.
	st = parent.Child("tensor")
	s.tensor.Run(p.Pool, s.a0, s.a1, s.b0, s.b1, s.t0, s.t1, s.t2)
	st.End()

	st = parent.Child("intt")
	p.TrFull.Inverse(s.t0)
	p.TrFull.Inverse(s.t1)
	p.TrFull.Inverse(s.t2)
	st.End()

	// Scale Q → q (Fig. 2, right), consuming the tensor rows in place and
	// writing directly into the destination elements — no staging copies.
	st = parent.Child("scale")
	ev.scaleInto(s.t0, out.Els[0])
	ev.scaleInto(s.t1, out.Els[1])
	ev.scaleInto(s.t2, out.Els[2])
	st.End()
}

// scaleInto scales the full-basis x down to the q basis into out through the
// evaluator's variant.
func (ev *Evaluator) scaleInto(x, out poly.RNSPoly) {
	ev.params.Scaler.ScalePolyVariantInto(ev.variant, x, out)
}

// liftTargets computes the p-basis rows of the lift of x into dst's tail
// rows; dst's q rows are left untouched (forwardLifted fills them).
func (ev *Evaluator) liftTargets(x, dst poly.RNSPoly) {
	ev.params.Lifter.LiftTargetsVariantInto(ev.variant, x, dst.Rows[ev.params.Cfg.QCount:])
}

// forwardLifted forward-transforms the lifted operand dst over the full
// basis: q rows fused from src (copy folded into the first butterfly level),
// p rows in place.
func (ev *Evaluator) forwardLifted(dst, src poly.RNSPoly) {
	p := ev.params
	t := &ev.scr.nttLift
	t.tables, t.dst, t.src = p.TrFull.Tables, dst.Rows, src.Rows
	p.Pool.RunTask(p.N()*len(dst.Rows), len(dst.Rows), t)
}

// SquareNoRelin computes the degree-2 square of a ciphertext: the one tensor
// with b = a (c̃1 = a0·a1 + a1·a0 is 2·a0·a1 in canonical residues).
func (ev *Evaluator) SquareNoRelin(a *Ciphertext) *Ciphertext {
	return ev.MulNoRelin(a, a)
}

// Square is SquareNoRelin followed by relinearization.
func (ev *Evaluator) Square(a *Ciphertext, rk *RelinKey) *Ciphertext {
	return ev.Relinearize(ev.SquareNoRelin(a), rk)
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using rk:
// c̃2 is decomposed into digits, and c0 += SoP(d, rlk0), c1 += SoP(d, rlk1)
// (paper Sec. II-B ReLin).
func (ev *Evaluator) Relinearize(ct *Ciphertext, rk *RelinKey) *Ciphertext {
	sc := ev.tracer.Start("relin")
	defer sc.End()
	out := NewCiphertext(ev.params, 2)
	ev.relinearizeInto(sc, ct, rk, out)
	return out
}

// RelinearizeInto is Relinearize writing into a caller-owned degree-1
// ciphertext. With an HPS relin key and a reused destination it allocates
// nothing in steady state (the traditional word decomposition still builds
// its digit polynomials per call). out may alias ct.
func (ev *Evaluator) RelinearizeInto(ct *Ciphertext, rk *RelinKey, out *Ciphertext) {
	sc := ev.tracer.Start("relin")
	defer sc.End()
	ev.relinearizeInto(sc, ct, rk, out)
}

func (ev *Evaluator) relinearizeInto(parent obs.Scope, ct *Ciphertext, rk *RelinKey, out *Ciphertext) {
	p := ev.params
	if len(ct.Els) != 3 {
		panic("fv: Relinearize expects a degree-2 ciphertext")
	}
	if len(out.Els) != 2 {
		panic(fmt.Sprintf("fv: RelinearizeInto needs a degree-1 destination, got %d elements", len(out.Els)))
	}
	ev.count("fv.relin")
	// The traditional architecture brings its own positional digits; the
	// HPS key takes the switcher's RNS gadget.
	var digits []poly.RNSPoly
	if rk.Variant == Traditional {
		st := parent.Child("decomp")
		digits = rns.WordDecompose(p.QBasis, ct.Els[2], rk.LogW, rk.Ell)
		st.End()
	}
	s0, s1 := ev.scratch().ksw.Switch(parent, ct.Els[2], digits, rk.Rlk0Hat, rk.Rlk1Hat)
	st := parent.Child("combine")
	ev.ops.AddInto(ct.Els[0], s0, out.Els[0])
	ev.ops.AddInto(ct.Els[1], s1, out.Els[1])
	st.End()
}

// keySwitch returns (c0 + SoP(D(c1), k0), SoP(D(c1), k1)): the ciphertext
// (c0, c1), valid under the key's source secret, re-encrypted to its
// destination secret.
func (ev *Evaluator) keySwitch(c0, c1 poly.RNSPoly, k0, k1 []poly.RNSPoly) *Ciphertext {
	s0, s1 := ev.scratch().ksw.Switch(obs.Scope{}, c1, nil, k0, k1)
	out := NewCiphertext(ev.params, 2)
	c0.AddInto(s0, out.Els[0])
	s1.CopyInto(out.Els[1])
	return out
}

// Mul is the full FV.Mult: MulNoRelin followed by Relinearize. With a tracer
// attached it emits one "mul" span whose children are the pipeline stages.
func (ev *Evaluator) Mul(a, b *Ciphertext, rk *RelinKey) *Ciphertext {
	out := NewCiphertext(ev.params, 2)
	ev.MulInto(a, b, rk, out)
	return out
}

// MulInto is the zero-allocation FV.Mult: the degree-2 intermediate lives in
// evaluator scratch and the relinearized product lands in the caller-owned
// degree-1 out. With the HPS variant and a reused destination, steady-state
// allocations are zero. out may alias a or b — the inputs are fully consumed
// before out is written.
func (ev *Evaluator) MulInto(a, b *Ciphertext, rk *RelinKey, out *Ciphertext) {
	sc := ev.tracer.Start("mul")
	defer sc.End()
	ev.count("fv.mul")
	s := ev.scratch()
	ev.mulNoRelinInto(sc, a, b, s.mid)
	relin := sc.Child("relin")
	ev.relinearizeInto(relin, s.mid, rk, out)
	relin.End()
}

// Pow raises a ciphertext to the k-th power (k ≥ 1) by square-and-multiply,
// consuming ⌈log2 k⌉ + popcount(k) - 1 multiplications at multiplicative
// depth ⌈log2 k⌉ — the building block of the polynomial evaluations in the
// paper's statistical applications.
func (ev *Evaluator) Pow(a *Ciphertext, k uint64, rk *RelinKey) *Ciphertext {
	if k == 0 {
		panic("fv: Pow exponent must be ≥ 1 (an encryption of 1 needs no ciphertext)")
	}
	var result *Ciphertext
	base := a
	for {
		if k&1 == 1 {
			if result == nil {
				result = base
			} else {
				result = ev.Mul(result, base, rk)
			}
		}
		k >>= 1
		if k == 0 {
			return result
		}
		base = ev.Square(base, rk)
	}
}
