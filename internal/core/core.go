// Package core is the top-level public API of the reproduction: the
// domain-specific homomorphic-encryption accelerator of the paper, bound
// together from the FV scheme (internal/fv), the co-processor simulator
// (internal/hwsim), and the instruction scheduler (internal/sched).
//
// An Accelerator owns a simulated Zynq platform — co-processor instances in
// the programmable logic, one scheduler ("application Arm core") per
// co-processor — and executes homomorphic Add and Mult on it. Results are
// bit-exact against the pure-software evaluator, and every operation returns
// a Report with the cycle, time, and transfer accounting that reproduces the
// paper's tables.
package core

import (
	"fmt"
	"sync"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sched"
)

// Accelerator is a simulated instance of the paper's Arm+FPGA platform.
type Accelerator struct {
	Params   *fv.Params
	Variant  hwsim.Variant
	Platform *hwsim.Platform

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

// New builds an accelerator with `coprocs` co-processor instances (the paper
// implements two) running the given lift/scale variant.
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
	factory := func() (*hwsim.Coprocessor, error) {
		return hwsim.NewCoprocessor(params.QMods, params.PMods, params.N(),
			params.Lifter, params.Scaler, variant, timing, sched.MinSlots(0))
	}
	platform, err := hwsim.NewPlatform(factory, coprocs)
	if err != nil {
		return nil, err
	}
	a := &Accelerator{Params: params, Variant: variant, Platform: platform,
		pool: pool[*sched.Scheduler]{n: params.N(), dma: hwsim.DMA{Timing: timing}, seedStride: 1}}
	for _, c := range platform.Coprocs {
		a.add(sched.New(params, c), c.Stats, c)
	}
	return a, nil
}

// NewPaper builds the paper's implemented configuration: the n = 4096
// parameter set, the HPS architecture, two co-processors.
func NewPaper(t uint64) (*Accelerator, error) {
	params, err := fv.NewParams(fv.PaperConfig(t))
	if err != nil {
		return nil, err
	}
	return New(params, hwsim.VariantHPS, 2)
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

// MulBatch runs independent multiplications across all co-processors
// concurrently (the paper's dual-co-processor throughput experiment:
// "two Mult operations take roughly the same time as one"). It returns the
// results and the aggregate wall-clock seconds of the slowest co-processor.
func (a *Accelerator) MulBatch(xs, ys []*fv.Ciphertext, rk *fv.RelinKey) ([]*fv.Ciphertext, float64, error) {
	if len(xs) != len(ys) {
		return nil, 0, fmt.Errorf("core: operand count mismatch")
	}
	results := make([]*fv.Ciphertext, len(xs))
	perWorker := make([]float64, len(a.workers))
	errs := make([]error, len(a.workers))
	var wg sync.WaitGroup
	for w := range a.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(xs); i += len(a.workers) {
				err := a.onWorker(w, func(s *sched.Scheduler) error {
					res, cycles, err := s.Mul(xs[i], ys[i], rk)
					if err != nil {
						return err
					}
					results[i] = res
					perWorker[w] += cycles.Seconds()
					return nil
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	slowest := 0.0
	for _, t := range perWorker {
		if t > slowest {
			slowest = t
		}
	}
	return results, slowest, nil
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
