package ckks

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/rlwe"
)

// scaleTolerance is the maximum relative scale mismatch Add/Sub absorb:
// operand alignment is the circuit author's job (encode constants at the
// exact scale the branch needs), so anything beyond float64 rounding slack
// is a bug worth failing loudly on.
const scaleTolerance = 1e-9

// Evaluator computes on CKKS ciphertexts with the same pooled, zero-
// allocation discipline as the BFV evaluator: all RNS-row loops fan out
// across the parameter set's pool, the hot paths (MulInto, RescaleInto)
// write into caller-owned destinations through evaluator-owned scratch, and
// the keyswitch inner loop is the shared rlwe fused kernel. Results are
// bit-identical at any pool size.
//
// An Evaluator is single-client: one per goroutine (the engine gives each
// worker its own).
type Evaluator struct {
	params  *Params
	ops     poly.PoolOps
	tracer  *obs.Tracer
	metrics *obs.Registry
	scr     evalScratch
}

// NewEvaluator returns an evaluator over params.
func NewEvaluator(params *Params) *Evaluator {
	return &Evaluator{params: params, ops: poly.PoolOps{Pool: params.Pool}}
}

// SetTracer attaches (or, with nil, detaches) a span tracer.
func (ev *Evaluator) SetTracer(t *obs.Tracer) { ev.tracer = t }

// SetMetrics attaches a registry; the evaluator counts operations under
// "ckks.<op>" names.
func (ev *Evaluator) SetMetrics(r *obs.Registry) { ev.metrics = r }

func (ev *Evaluator) count(name string) {
	if ev.metrics != nil {
		ev.metrics.Counter(name).Add(1)
	}
}

// evalScratch is the evaluator-owned working set, sized once over the full
// chain; level-ℓ operations use row prefixes of the same backing arrays.
type evalScratch struct {
	ready bool

	a0, a1, b0, b1 poly.RNSPoly // NTT-domain operands
	t0, t1, t2     poly.RNSPoly // tensor accumulators / relin inputs
	r0, r1         poly.RNSPoly // automorphism staging
	m0, m1         poly.RNSPoly // ModDown landing (q rows of the SoP / p*)
	tensor         rlwe.Tensor
	mid            Ciphertext // level-ℓ view of t0..t2: MulInto's degree-2 intermediate

	// ksw[ℓ] is the level-ℓ keyswitch core, built lazily (each level's
	// digits and accumulators span its own rows).
	ksw []*rlwe.KeySwitcher
}

func (ev *Evaluator) scratch() *evalScratch {
	s := &ev.scr
	if s.ready {
		return s
	}
	p := ev.params
	n := p.N()
	s.a0 = poly.NewRNSPoly(p.QMods, n)
	s.a1 = poly.NewRNSPoly(p.QMods, n)
	s.b0 = poly.NewRNSPoly(p.QMods, n)
	s.b1 = poly.NewRNSPoly(p.QMods, n)
	s.t0 = poly.NewRNSPoly(p.QMods, n)
	s.t1 = poly.NewRNSPoly(p.QMods, n)
	s.t2 = poly.NewRNSPoly(p.QMods, n)
	s.r0 = poly.NewRNSPoly(p.QMods, n)
	s.r1 = poly.NewRNSPoly(p.QMods, n)
	s.m0 = poly.NewRNSPoly(p.QMods, n)
	s.m1 = poly.NewRNSPoly(p.QMods, n)
	s.mid.Els = make([]poly.RNSPoly, 3)
	s.ksw = make([]*rlwe.KeySwitcher, p.Cfg.QCount)
	s.ready = true
	return s
}

// kswAt returns the level-ℓ keyswitch core, building it on first use: a
// hybrid switcher whose digits decompose the chain prefix with the top
// basis's constants — the gadget the one top-level key encrypts — and carry
// the p* extension row.
func (ev *Evaluator) kswAt(level int) *rlwe.KeySwitcher {
	s := ev.scratch()
	if s.ksw[level] == nil {
		p := ev.params
		s.ksw[level] = rlwe.NewKeySwitcherExt(p.Pool, p.TrKS[level], p.BasisLevel[p.MaxLevel()], p.KSMods[level], p.N())
	}
	return s.ksw[level]
}

// keySwitch runs the shared key-switch datapath on x under the level's key
// and adds what the hybrid construction needs after the digit loop: a
// ModDown dividing both accumulators by p*, landing the switched value back
// on the chain prefix in evaluator scratch. Spans under parent: decomp, sop,
// intt, moddown.
func (ev *Evaluator) keySwitch(parent obs.Scope, level int, x poly.RNSPoly, lk *LevelKey) (md0, md1 poly.RNSPoly) {
	p := ev.params
	s0, s1 := ev.kswAt(level).Switch(parent, x, lk.Ks0Hat, lk.Ks1Hat)
	st := parent.Child("moddown")
	md0, md1 = ev.scr.m0.Prefix(level+1), ev.scr.m1.Prefix(level+1)
	p.RescalerKS[level].RescaleInto(p.Pool, s0, md0)
	p.RescalerKS[level].RescaleInto(p.Pool, s1, md1)
	st.End()
	return md0, md1
}

// matchScales validates that two operand scales agree within float64
// rounding slack and returns the common scale.
func matchScales(op string, a, b float64) float64 {
	hi, lo := a, b
	if hi < lo {
		hi, lo = lo, hi
	}
	if (hi-lo)/hi > scaleTolerance {
		panic(fmt.Sprintf("ckks: %s scale mismatch (%g vs %g) — rescale or re-encode to align", op, a, b))
	}
	return hi
}

func matchLevels(op string, a, b *Ciphertext) int {
	if a.Level() != b.Level() {
		panic(fmt.Sprintf("ckks: %s level mismatch (%d vs %d) — DropLevel the fresher operand", op, a.Level(), b.Level()))
	}
	return a.Level()
}

// Add returns a + b (same level; scales must already be aligned).
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	ev.count("ckks.add")
	level := matchLevels("Add", a, b)
	scale := matchScales("Add", a.Scale, b.Scale)
	ae, be := rlwe.PadElements(a.Els, b.Els)
	out := NewCiphertext(ev.params, len(ae)-1, level)
	out.Scale = scale
	for i := range ae {
		ev.ops.AddInto(ae[i], be[i], out.Els[i])
	}
	return out
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	ev.count("ckks.sub")
	level := matchLevels("Sub", a, b)
	scale := matchScales("Sub", a.Scale, b.Scale)
	ae, be := rlwe.PadElements(a.Els, b.Els)
	out := NewCiphertext(ev.params, len(ae)-1, level)
	out.Scale = scale
	for i := range ae {
		ev.ops.SubInto(ae[i], be[i], out.Els[i])
	}
	return out
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	out := NewCiphertext(ev.params, len(a.Els)-1, a.Level())
	out.Scale = a.Scale
	for i := range a.Els {
		ev.ops.NegInto(a.Els[i], out.Els[i])
	}
	return out
}

// AddPlain returns ct + pt (matched level and scale).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.count("ckks.add_plain")
	if pt.Level() != ct.Level() {
		panic(fmt.Sprintf("ckks: AddPlain level mismatch (ct %d, pt %d)", ct.Level(), pt.Level()))
	}
	out := ct.Clone()
	out.Scale = matchScales("AddPlain", ct.Scale, pt.Scale)
	ev.ops.AddInto(out.Els[0], pt.Value, out.Els[0])
	return out
}

// MulPlain returns ct·pt; the result's scale is the product of the two
// scales (a Rescale brings it back down).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	out := NewCiphertext(ev.params, len(ct.Els)-1, ct.Level())
	ev.MulPlainInto(ct, pt, out)
	return out
}

// MulPlainInto is MulPlain into a caller-owned destination of the same
// shape. out may alias ct.
func (ev *Evaluator) MulPlainInto(ct *Ciphertext, pt *Plaintext, out *Ciphertext) {
	ev.count("ckks.mul_plain")
	p := ev.params
	level := ct.Level()
	if pt.Level() != level {
		panic(fmt.Sprintf("ckks: MulPlain level mismatch (ct %d, pt %d)", level, pt.Level()))
	}
	if len(out.Els) != len(ct.Els) || out.Level() != level {
		panic("ckks: MulPlainInto destination shape mismatch")
	}
	s := ev.scratch()
	tr := p.TrLevel[level]
	k := level + 1
	ptHat := s.t2.Prefix(k)
	tr.ForwardFromInto(ptHat, pt.Value)
	for i := range ct.Els {
		el := s.t0.Prefix(k)
		tr.ForwardFromInto(el, ct.Els[i])
		ev.ops.MulInto(el, ptHat, el)
		// The inverse transform runs in scratch, then copies out — keeps
		// out aliasing ct legal for every element.
		tr.Inverse(el)
		el.CopyInto(out.Els[i])
	}
	out.Scale = ct.Scale * pt.Scale
}

// MulNoRelin computes the degree-2 tensor product of two degree-1
// ciphertexts at a common level. The product's scale is the product of the
// operand scales.
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) *Ciphertext {
	sc := ev.tracer.Start("ckks_mul_no_relin")
	defer sc.End()
	out := NewCiphertext(ev.params, 2, matchLevels("Mul", a, b))
	ev.mulNoRelinInto(sc, a, b, out)
	return out
}

func (ev *Evaluator) mulNoRelinInto(parent obs.Scope, a, b, out *Ciphertext) {
	mid := ev.tensor(parent, a, b)
	if len(out.Els) != 3 || out.Level() != mid.Level() {
		panic("ckks: MulNoRelin destination shape mismatch")
	}
	for i := range mid.Els {
		mid.Els[i].CopyInto(out.Els[i])
	}
	out.Scale = mid.Scale
}

// tensor computes the degree-2 product of a and b into evaluator scratch and
// returns it (coefficient domain, valid until the next tensor or MulPlain).
// Spans under parent: ntt, tensor, intt.
func (ev *Evaluator) tensor(parent obs.Scope, a, b *Ciphertext) *Ciphertext {
	p := ev.params
	if len(a.Els) != 2 || len(b.Els) != 2 {
		panic(fmt.Sprintf("ckks: Mul needs degree-1 ciphertexts, got %d and %d elements", len(a.Els), len(b.Els)))
	}
	level := matchLevels("Mul", a, b)
	ev.count("ckks.mul_no_relin")
	s := ev.scratch()
	k := level + 1
	tr := p.TrLevel[level]

	st := parent.Child("ntt")
	a0, a1 := s.a0.Prefix(k), s.a1.Prefix(k)
	b0, b1 := s.b0.Prefix(k), s.b1.Prefix(k)
	tr.ForwardFromInto(a0, a.Els[0])
	tr.ForwardFromInto(a1, a.Els[1])
	tr.ForwardFromInto(b0, b.Els[0])
	tr.ForwardFromInto(b1, b.Els[1])
	st.End()

	// No basis lift: CKKS multiplies directly over the live chain — where
	// BFV pays Lift/Scale, CKKS pays Rescale afterwards.
	st = parent.Child("tensor")
	mid := &s.mid
	mid.Els[0], mid.Els[1], mid.Els[2] = s.t0.Prefix(k), s.t1.Prefix(k), s.t2.Prefix(k)
	s.tensor.Run(p.Pool, a0, a1, b0, b1, mid.Els[0], mid.Els[1], mid.Els[2])
	st.End()

	st = parent.Child("intt")
	for _, el := range mid.Els {
		tr.Inverse(el)
	}
	st.End()

	mid.Scale = a.Scale * b.Scale
	return mid
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 with the
// relin key's level view: c̃2 decomposes into digits and the shared fused SoP
// folds it onto (c0, c1).
func (ev *Evaluator) Relinearize(ct *Ciphertext, rk *RelinKey) *Ciphertext {
	sc := ev.tracer.Start("ckks_relin")
	defer sc.End()
	out := NewCiphertext(ev.params, 1, ct.Level())
	ev.relinearizeInto(sc, ct, rk, out)
	return out
}

func (ev *Evaluator) relinearizeInto(parent obs.Scope, ct *Ciphertext, rk *RelinKey, out *Ciphertext) {
	if len(ct.Els) != 3 {
		panic("ckks: Relinearize expects a degree-2 ciphertext")
	}
	level := ct.Level()
	if len(out.Els) != 2 || out.Level() != level {
		panic("ckks: RelinearizeInto destination shape mismatch")
	}
	ev.count("ckks.relin")
	md0, md1 := ev.keySwitch(parent, level, ct.Els[2], rk.At(level))
	st := parent.Child("combine")
	ev.ops.AddInto(ct.Els[0], md0, out.Els[0])
	ev.ops.AddInto(ct.Els[1], md1, out.Els[1])
	st.End()
	out.Scale = ct.Scale
}

// Mul is the full CKKS multiply: tensor then relinearize. The result keeps
// the squared scale; follow with Rescale.
func (ev *Evaluator) Mul(a, b *Ciphertext, rk *RelinKey) *Ciphertext {
	out := NewCiphertext(ev.params, 1, matchLevels("Mul", a, b))
	ev.MulInto(a, b, rk, out)
	return out
}

// MulInto is the zero-allocation multiply: the degree-2 intermediate lives
// in evaluator scratch and the relinearized product lands in the caller-
// owned out (degree 1, same level). out may alias a or b — the inputs are
// fully consumed before out is written.
func (ev *Evaluator) MulInto(a, b *Ciphertext, rk *RelinKey, out *Ciphertext) {
	sc := ev.tracer.Start("ckks_mul")
	defer sc.End()
	ev.count("ckks.mul")
	mid := ev.tensor(sc, a, b)
	relin := sc.Child("relin")
	ev.relinearizeInto(relin, mid, rk, out)
	relin.End()
}

// Rescale divides the ciphertext by the top chain prime, dropping one
// level: the managed scale comes back toward Δ and the noise introduced by
// the preceding multiply is rounded away with it.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	out := NewCiphertext(ev.params, len(ct.Els)-1, ct.Level()-1)
	ev.RescaleInto(ct, out)
	return out
}

// RescaleInto is Rescale into a caller-owned destination one level below
// ct (same degree). Zero allocations in steady state. out must not alias
// ct (the kernel reads every input row while writing the prefix).
func (ev *Evaluator) RescaleInto(ct *Ciphertext, out *Ciphertext) {
	sc := ev.tracer.Start("ckks_rescale")
	defer sc.End()
	ev.count("ckks.rescale")
	p := ev.params
	level := ct.Level()
	if level < 1 {
		panic("ckks: cannot rescale at level 0 — the chain is exhausted")
	}
	if len(out.Els) != len(ct.Els) || out.Level() != level-1 {
		panic("ckks: RescaleInto destination shape mismatch")
	}
	for i := range ct.Els {
		p.Rescaler.RescaleInto(p.Pool, ct.Els[i], out.Els[i])
	}
	out.Scale = ct.Scale / float64(p.QMods[level].Q)
}

// DropLevel discards chain rows without dividing: it aligns a fresher
// ciphertext's level to a more-consumed operand's (scale unchanged —
// dropping residues of the same centered value is exact as long as the
// coefficients stay within the remaining modulus).
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) *Ciphertext {
	if level >= ct.Level() || level < 0 {
		panic(fmt.Sprintf("ckks: DropLevel from %d to %d", ct.Level(), level))
	}
	out := &Ciphertext{Scale: ct.Scale}
	for _, el := range ct.Els {
		out.Els = append(out.Els, el.Prefix(level+1).Clone())
	}
	return out
}

// Rotate left-rotates the slot vector by r positions using the matching
// Galois key: automorphism on both elements, then the shared keyswitch
// brings σ(s) back to s — the relinearization datapath with a different
// key.
func (ev *Evaluator) Rotate(ct *Ciphertext, r int, gk *GaloisKey) *Ciphertext {
	out := NewCiphertext(ev.params, 1, ct.Level())
	ev.RotateInto(ct, r, gk, out)
	return out
}

// RotateInto is Rotate into a caller-owned destination. out must not alias
// ct.
func (ev *Evaluator) RotateInto(ct *Ciphertext, r int, gk *GaloisKey, out *Ciphertext) {
	sc := ev.tracer.Start("ckks_rotate")
	defer sc.End()
	ev.count("ckks.rotate")
	p := ev.params
	if len(ct.Els) != 2 {
		panic("ckks: Rotate expects a degree-1 ciphertext")
	}
	g := p.GaloisElementForRotation(r)
	if g != gk.G {
		panic(fmt.Sprintf("ckks: rotation by %d needs Galois element %d, key holds %d", r, g, gk.G))
	}
	ev.applyGaloisInto(sc, ct, gk, out)
}

// Conjugate applies complex conjugation to the slots (element 2n-1).
func (ev *Evaluator) Conjugate(ct *Ciphertext, gk *GaloisKey) *Ciphertext {
	sc := ev.tracer.Start("ckks_conjugate")
	defer sc.End()
	ev.count("ckks.conjugate")
	if gk.G != ev.params.GaloisElementForConjugation() {
		panic(fmt.Sprintf("ckks: conjugation needs element %d, key holds %d", ev.params.GaloisElementForConjugation(), gk.G))
	}
	out := NewCiphertext(ev.params, 1, ct.Level())
	ev.applyGaloisInto(sc, ct, gk, out)
	return out
}

func (ev *Evaluator) applyGaloisInto(parent obs.Scope, ct *Ciphertext, gk *GaloisKey, out *Ciphertext) {
	level := ct.Level()
	if len(out.Els) != 2 || out.Level() != level {
		panic("ckks: rotation destination shape mismatch")
	}
	s := ev.scratch()

	st := parent.Child("automorph")
	r0, r1 := s.r0.Prefix(level+1), s.r1.Prefix(level+1)
	rlwe.AutomorphInto(gk.G, ct.Els[0], r0)
	rlwe.AutomorphInto(gk.G, ct.Els[1], r1)
	st.End()

	md0, md1 := ev.keySwitch(parent, level, r1, gk.At(level))
	st = parent.Child("combine")
	ev.ops.AddInto(r0, md0, out.Els[0])
	md1.CopyInto(out.Els[1])
	st.End()
	out.Scale = ct.Scale
}

// ScaleUpTo returns the plaintext scale a constant must be encoded at so
// that, multiplied against a ciphertext at scale ctScale and rescaled by
// the level's top prime, the branch lands exactly on target.
func (p *Params) ScaleUpTo(ctScale float64, level int, target float64) float64 {
	return target * float64(p.QMods[level].Q) / ctScale
}
