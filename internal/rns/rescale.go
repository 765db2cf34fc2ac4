package rns

import (
	"fmt"

	"repro/internal/poly"
	"repro/internal/ring"
)

// Rescaler implements the CKKS modulus-switch: divide a polynomial over the
// chain q_0..q_t by its top prime q_t with rounding, dropping the top
// residue row. In RNS the division never leaves word arithmetic: with
// r' = (x_t + ⌊q_t/2⌋) mod q_t, the rounded quotient is
//
//	y_j = (x_j + ⌊q_t/2⌋ − r') · q_t⁻¹  (mod q_j),  j < t,
//
// the standard half-adjusted flooring (SEAL's divide-and-round-q-last). The
// same kernel backs both the software evaluator and the simulator's Rescale
// unit, so hardware/software parity on Rescale holds by construction —
// they literally execute this function.
//
// A Rescaler is built once over the full chain and serves every level: the
// top index is inferred from the input's row count. It is stateless after
// construction and safe for concurrent use.
type Rescaler struct {
	mods []ring.Modulus

	// Per top index t ≥ 1 and output row j < t: q_t⁻¹ mod q_j with its Shoup
	// companion, and ⌊q_t/2⌋ mod q_j.
	invTop      [][]uint64
	invTopShoup [][]uint64
	halfMod     [][]uint64
}

// NewRescaler precomputes the per-level constants of the chain mods
// (q_0 first, the last prime dropped first).
func NewRescaler(mods []ring.Modulus) *Rescaler {
	r := &Rescaler{
		mods:        append([]ring.Modulus(nil), mods...),
		invTop:      make([][]uint64, len(mods)),
		invTopShoup: make([][]uint64, len(mods)),
		halfMod:     make([][]uint64, len(mods)),
	}
	for t := 1; t < len(mods); t++ {
		qt := mods[t].Q
		half := qt >> 1
		r.invTop[t] = make([]uint64, t)
		r.invTopShoup[t] = make([]uint64, t)
		r.halfMod[t] = make([]uint64, t)
		for j := 0; j < t; j++ {
			m := mods[j]
			inv := m.Inv(m.Reduce(qt))
			r.invTop[t][j] = inv
			r.invTopShoup[t][j] = m.ShoupPrecomp(inv)
			r.halfMod[t][j] = m.Reduce(half)
		}
	}
	return r
}

// RescaleInto divides x (rows over q_0..q_t, coefficient domain) by q_t
// with rounding into out (rows over q_0..q_{t-1}). out may alias x's prefix
// rows. The row loop fans out over pool; results are bit-identical at any
// pool size.
func (r *Rescaler) RescaleInto(pool *poly.Pool, x, out poly.RNSPoly) {
	t := len(x.Rows) - 1
	if t < 1 || t >= len(r.mods) {
		panic(fmt.Sprintf("rns: rescale needs 2..%d input rows, got %d", len(r.mods), t+1))
	}
	if len(out.Rows) != t {
		panic(fmt.Sprintf("rns: rescale into %d rows, want %d", len(out.Rows), t))
	}
	n := x.N()
	task := getRescaleTask()
	task.r = r
	task.t = t
	task.x = x.Rows
	task.out = out.Rows
	pool.RunTask(n*t, t, task)
	putRescaleTask(task)
}

// rescaleTask computes one output row: the centering of the top row against
// q_t is recomputed per row (inside ring.VecRescaleInto) rather than staged
// through a shared temporary, keeping rows independent (order-free, hence
// pool-size invariant) at the cost of one extra add per lane.
type rescaleTask struct {
	r   *Rescaler
	t   int
	x   []poly.Poly
	out []poly.Poly
}

func (task *rescaleTask) RunIndex(j int) {
	r, t := task.r, task.t
	r.mods[j].VecRescaleInto(task.out[j].Coeffs, task.x[j].Coeffs, task.x[t].Coeffs,
		r.mods[t], r.halfMod[t][j], r.invTop[t][j], r.invTopShoup[t][j])
}

var rescaleTaskFree = make(chan *rescaleTask, 16)

func getRescaleTask() *rescaleTask {
	select {
	case t := <-rescaleTaskFree:
		return t
	default:
		return new(rescaleTask)
	}
}

func putRescaleTask(t *rescaleTask) {
	*t = rescaleTask{}
	select {
	case rescaleTaskFree <- t:
	default:
	}
}
