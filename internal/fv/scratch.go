package fv

import (
	"repro/internal/poly"
	"repro/internal/rlwe"
)

// evalScratch is the evaluator-owned working set of the Mul pipeline: the
// four lifted operands and three tensor accumulators over the full basis, the
// degree-2 intermediate, and the relinearization digits and sum-of-products
// accumulators over the q basis. It is sized lazily on the first multiply and
// then reused forever, which is what drives steady-state allocations of the
// MulInto/RelinearizeInto path to zero — the software analogue of the paper's
// co-processor keeping every pipeline operand resident in on-chip BRAM
// instead of re-allocating DRAM buffers per operation.
//
// The scratch also embeds the recycled dispatch tasks of the fused kernels
// (lift+NTT here, the shared tensor, digit-NTT+SoP inside the switcher);
// holding them here rather than constructing closures keeps the dispatch
// allocation-free and the stage arguments off the heap.
//
// Because the scratch is mutable shared state, an Evaluator is single-client:
// concurrent evaluation needs one Evaluator per goroutine (the engine already
// gives each worker its own).
type evalScratch struct {
	ready bool

	a0, a1, b0, b1 poly.RNSPoly // lifted operands, full basis, NTT domain
	t0, t1, t2     poly.RNSPoly // tensor accumulators, full basis
	mid            *Ciphertext  // degree-2 intermediate of MulInto

	// ksw owns the key-switch scratch (digits, SoP accumulators) and the
	// fused digit-NTT+MAC kernel, shared with the CKKS binding.
	ksw *rlwe.KeySwitcher

	nttLift nttLiftTask
	tensor  rlwe.Tensor
}

// scratch returns the evaluator's scratch, sizing it on first use.
func (ev *Evaluator) scratch() *evalScratch {
	s := &ev.scr
	if s.ready {
		return s
	}
	p := ev.params
	n := p.N()
	s.a0 = poly.NewRNSPoly(p.AllMods, n)
	s.a1 = poly.NewRNSPoly(p.AllMods, n)
	s.b0 = poly.NewRNSPoly(p.AllMods, n)
	s.b1 = poly.NewRNSPoly(p.AllMods, n)
	s.t0 = poly.NewRNSPoly(p.AllMods, n)
	s.t1 = poly.NewRNSPoly(p.AllMods, n)
	s.t2 = poly.NewRNSPoly(p.AllMods, n)
	s.mid = NewCiphertext(p, 3)
	s.ksw = rlwe.NewKeySwitcher(p.Pool, p.TrQ, p.QBasis, n)
	s.ready = true
	return s
}

// nttLiftTask fuses the tail of Lift q→Q with the forward NTT over the full
// basis: the kept q rows are transformed straight out of the input ciphertext
// into scratch (ForwardFromInto — the first butterfly level does the copy),
// while the freshly lifted p rows, already sitting in scratch, transform in
// place. This removes the q-row clone an unfused lift needs for all four
// operands.
type nttLiftTask struct {
	tables []*poly.NTTTable
	dst    []poly.Poly
	src    []poly.Poly // the kq kept source rows; rows ≥ len(src) are in place
}

func (t *nttLiftTask) RunIndex(i int) {
	if i < len(t.src) {
		t.tables[i].ForwardFromInto(t.dst[i].Coeffs, t.src[i].Coeffs)
	} else {
		t.tables[i].Forward(t.dst[i].Coeffs)
	}
}
