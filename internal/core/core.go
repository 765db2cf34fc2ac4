// Package core is the top-level public API of the reproduction: the
// domain-specific homomorphic-encryption accelerator of the paper, bound
// together from the FV scheme (internal/fv), the co-processor simulator
// (internal/hwsim), and the instruction scheduler (internal/sched).
//
// An Accelerator is one simulated co-processor of the paper's Zynq platform
// with its scheduler ("application Arm core"), and executes homomorphic Add
// and Mult on it. Results are bit-exact against the pure-software evaluator,
// and every operation returns a Report with the cycle, time, and transfer
// accounting that reproduces the paper's tables. The platform of Fig. 11 —
// several co-processors behind one networking core — is internal/engine,
// which holds one Accelerator per worker.
package core

import (
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sched"
)

// Accelerator is one simulated co-processor with its scheduler.
type Accelerator struct {
	Params  *fv.Params
	Variant hwsim.Variant
	Coproc  *hwsim.Coprocessor

	pool[*sched.Scheduler]
}

// Report is the timing accounting of one accelerated operation.
type Report struct {
	// ComputeCycles is the FPGA-cycle duration of the instruction sequence,
	// including intermediate DMA (relinearization-key streaming) — the view
	// of Table I's "Mult in HW"/"Add in HW" rows.
	ComputeCycles hwsim.Cycles
	// SendCycles/ReceiveCycles are the operand and result transfers
	// (Table I rows 4–5).
	SendCycles    hwsim.Cycles
	ReceiveCycles hwsim.Cycles
	// KeyLoadCycles is the evaluation-key DMA stream charged to this
	// operation by a serving layer (internal/engine): zero when the key was
	// already resident on the co-processor, the full stream otherwise. The
	// paper overlaps this stream with compute; accounting it separately
	// keeps ComputeCycles comparable to Table I.
	KeyLoadCycles hwsim.Cycles
}

// ComputeSeconds returns the compute latency in seconds.
func (r Report) ComputeSeconds() float64 { return r.ComputeCycles.Seconds() }

// TotalSeconds returns compute plus transfer latency (operands, result, and
// any evaluation-key stream charged by the serving layer).
func (r Report) TotalSeconds() float64 {
	return (r.ComputeCycles + r.SendCycles + r.ReceiveCycles + r.KeyLoadCycles).Seconds()
}

// ArmCycles returns the compute latency in the Arm cycle-counter units the
// paper's tables use.
func (r Report) ArmCycles() uint64 { return r.ComputeCycles.ArmCycles() }

// New builds an accelerator running the given lift/scale variant. coprocs
// must be 1; any other value is an error (see oneCoproc).
func New(params *fv.Params, variant hwsim.Variant, coprocs int) (*Accelerator, error) {
	timing := hwsim.DefaultTiming()
	if variant == hwsim.VariantTraditional {
		// The paper's slower architecture compensates for the expensive
		// multi-precision Lift/Scale with four parallel cores ("To speedup
		// computation, we keep four parallel cores", Sec. VI-C).
		timing.LiftScaleCores = 4
	}
	return NewWithTiming(params, variant, coprocs, timing)
}

// NewWithTiming builds an accelerator with explicit timing calibration.
func NewWithTiming(params *fv.Params, variant hwsim.Variant, coprocs int, timing hwsim.Timing) (*Accelerator, error) {
	if err := oneCoproc(coprocs); err != nil {
		return nil, err
	}
	c, err := hwsim.NewCoprocessor(params.QMods, params.PMods, params.N(),
		params.Lifter, params.Scaler, variant, timing, sched.MinSlots())
	if err != nil {
		return nil, err
	}
	return &Accelerator{Params: params, Variant: variant, Coproc: c,
		pool: pool[*sched.Scheduler]{n: params.N(), dma: hwsim.DMA{Timing: timing},
			s: sched.New(params, c), stats: c.Stats, guard: c}}, nil
}

// Add computes FV.Add on the accelerator.
func (a *Accelerator) Add(x, y *fv.Ciphertext) (*fv.Ciphertext, Report, error) {
	kq := a.Params.QBasis.K()
	return run(&a.pool, 4, kq, kq, func(s *sched.Scheduler) (*fv.Ciphertext, hwsim.Cycles, error) {
		return s.Add(x, y)
	})
}

// Mul computes FV.Mult on the accelerator, returning the relinearized
// ciphertext and the timing report.
func (a *Accelerator) Mul(x, y *fv.Ciphertext, rk *fv.RelinKey) (*fv.Ciphertext, Report, error) {
	kq := a.Params.QBasis.K()
	return run(&a.pool, 4, kq, kq, func(s *sched.Scheduler) (*fv.Ciphertext, hwsim.Cycles, error) {
		return s.Mul(x, y, rk)
	})
}

// Rotate applies a Galois automorphism with key switch on the accelerator:
// one ciphertext in, one out.
func (a *Accelerator) Rotate(x *fv.Ciphertext, gk *fv.GaloisKey) (*fv.Ciphertext, Report, error) {
	kq := a.Params.QBasis.K()
	return run(&a.pool, 2, kq, kq, func(s *sched.Scheduler) (*fv.Ciphertext, hwsim.Cycles, error) {
		return s.Rotate(x, gk)
	})
}

// RelinKeyBytes returns the DMA transfer size of a relinearization key: two
// polynomial vectors of ell components, each a full R_q polynomial of 32-bit
// residue words. For the paper set (ell = 6) that is 2·6·98,304 ≈ 1.2 MB —
// which is why the paper streams the key during Mult instead of re-sending
// operand-style, and why a serving layer wants it cached.
func RelinKeyBytes(params *fv.Params, rk *fv.RelinKey) int {
	return 2 * rk.Ell * hwsim.PolyBytes(params.N(), params.QBasis.K())
}

// GaloisKeyBytes returns the DMA transfer size of a Galois key-switching
// key (same gadget shape as the relin key).
func GaloisKeyBytes(params *fv.Params, gk *fv.GaloisKey) int {
	return 2 * len(gk.Ks0Hat) * hwsim.PolyBytes(params.N(), params.QBasis.K())
}
