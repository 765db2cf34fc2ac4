package rlwe

import "repro/internal/poly"

// Tensor is the recycled dispatch task of the degree-2 tensor product both
// Mult pipelines run in the NTT domain,
//
//	t0 = a0·b0,   t1 = a0·b1 + a1·b0,   t2 = a1·b1,
//
// all three rows of one residue prime in a single fused walk
// (ring.VecTensorInto): the four operand rows are read once per prime
// instead of once per product. What differs per scheme is the basis the
// operands were brought to — BFV lifts to Q first, CKKS multiplies over the
// live chain. An evaluator keeps one Tensor in its scratch so the dispatch
// allocates nothing; like that scratch it is single-client.
type Tensor struct {
	a0, a1, b0, b1 []poly.Poly
	t0, t1, t2     []poly.Poly
}

// Run computes the tensor of (a0, a1) and (b0, b1) into (t0, t1, t2), rows
// fanned across pool. The work estimate is n·rows (one output sweep). b may
// alias a (a square).
func (t *Tensor) Run(pool *poly.Pool, a0, a1, b0, b1, t0, t1, t2 poly.RNSPoly) {
	t.a0, t.a1, t.b0, t.b1 = a0.Rows, a1.Rows, b0.Rows, b1.Rows
	t.t0, t.t1, t.t2 = t0.Rows, t1.Rows, t2.Rows
	pool.RunTask(t0.N()*len(t.t0), len(t.t0), t)
}

// RunIndex computes row i (poly.IndexTask).
func (t *Tensor) RunIndex(i int) {
	t.t0[i].Mod.VecTensorInto(
		t.t0[i].Coeffs, t.t1[i].Coeffs, t.t2[i].Coeffs,
		t.a0[i].Coeffs, t.a1[i].Coeffs, t.b0[i].Coeffs, t.b1[i].Coeffs)
}
