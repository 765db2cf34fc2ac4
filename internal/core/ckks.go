package core

import (
	"repro/internal/ckks"
	"repro/internal/hwsim"
	"repro/internal/sched"
)

// CKKSAccelerator is the approximate-arithmetic sibling of Accelerator: one
// scheduler serving CKKS operations through the chain co-processor. Results
// are bit-exact against the pure-software ckks.Evaluator, and every operation
// returns the same Report shape as the BFV path so serving layers account
// both schemes uniformly.
type CKKSAccelerator struct {
	Params *ckks.Params

	pool[*sched.CKKSScheduler]
}

// NewCKKS builds a CKKS accelerator (the chain co-processors underneath are
// built lazily per level). coprocs must be 1; any other value is an error
// (see oneCoproc).
func NewCKKS(params *ckks.Params, coprocs int) (*CKKSAccelerator, error) {
	return NewCKKSWithTiming(params, coprocs, hwsim.DefaultTiming())
}

// NewCKKSWithTiming builds a CKKS accelerator with explicit timing
// calibration.
func NewCKKSWithTiming(params *ckks.Params, coprocs int, timing hwsim.Timing) (*CKKSAccelerator, error) {
	if err := oneCoproc(coprocs); err != nil {
		return nil, err
	}
	s := sched.NewCKKS(params, timing)
	return &CKKSAccelerator{Params: params,
		pool: pool[*sched.CKKSScheduler]{n: params.N(), dma: hwsim.DMA{Timing: timing},
			s: s, stats: s.Stats, guard: s}}, nil
}

// chainRows is the residue-row count of a ciphertext's polynomials (its
// level + 1); zero for a malformed one, which the scheduler refuses.
func chainRows(ct *ckks.Ciphertext) int {
	if len(ct.Els) == 0 {
		return 0
	}
	return len(ct.Els[0].Rows)
}

// Add computes CKKS addition on the accelerator.
func (a *CKKSAccelerator) Add(x, y *ckks.Ciphertext) (*ckks.Ciphertext, Report, error) {
	k := chainRows(x)
	return run(&a.pool, 4, k, k, func(s *sched.CKKSScheduler) (*ckks.Ciphertext, hwsim.Cycles, error) {
		return s.Add(x, y)
	})
}

// Mul computes the full CKKS multiply — tensor, relinearization, and the
// trailing Rescale — returning the degree-1 result one level down. Compute
// cycles include the per-digit key streaming, as in the BFV Mult accounting.
func (a *CKKSAccelerator) Mul(x, y *ckks.Ciphertext, rk *ckks.RelinKey) (*ckks.Ciphertext, Report, error) {
	k := chainRows(x)
	return run(&a.pool, 4, k, k-1, func(s *sched.CKKSScheduler) (*ckks.Ciphertext, hwsim.Cycles, error) {
		return s.MulRescale(x, y, rk)
	})
}

// Rotate applies a slot rotation with key switch on the accelerator.
func (a *CKKSAccelerator) Rotate(x *ckks.Ciphertext, r int, gk *ckks.GaloisKey) (*ckks.Ciphertext, Report, error) {
	k := chainRows(x)
	return run(&a.pool, 2, k, k, func(s *sched.CKKSScheduler) (*ckks.Ciphertext, hwsim.Cycles, error) {
		return s.Rotate(x, r, gk)
	})
}

// CKKSLevelKeyBytes returns the DMA transfer size of one level-ℓ evaluation
// key bundle: two polynomial vectors of ℓ+1 gadget digits, each an
// extended-row (chain + p*) polynomial. This is the unit an evaluation-key
// cache holds resident per level.
func CKKSLevelKeyBytes(p *ckks.Params, level int) int {
	return 2 * (level + 1) * hwsim.PolyBytes(p.N(), level+2)
}

// CKKSKeyBytes returns the total DMA size of a full multi-level evaluation
// key (relinearization or Galois): the sum of every level bundle.
func CKKSKeyBytes(p *ckks.Params, levels int) int {
	total := 0
	for l := 1; l <= levels; l++ {
		total += CKKSLevelKeyBytes(p, l)
	}
	return total
}
