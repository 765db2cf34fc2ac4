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

	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Accelerator is a simulated instance of the paper's Arm+FPGA platform.
type Accelerator struct {
	Params   *fv.Params
	Variant  hwsim.Variant
	Platform *hwsim.Platform

	// dma is the transfer model under the accelerator's own timing
	// calibration: operand, result and key-stream accounting must see the
	// DMA the co-processors were built with, not the default one.
	dma    hwsim.DMA
	scheds []*worker
}

type worker struct {
	mu sync.Mutex
	s  *sched.Scheduler
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
	// PipelinedMinSlots(2) is MinSlots plus one shadow operand bank, so every
	// accelerator can run MulStream's double-buffered prefetch; the extra
	// four slots are dead weight for purely sequential callers.
	slots := sched.PipelinedMinSlots(2)
	factory := func() (*hwsim.Coprocessor, error) {
		return hwsim.NewCoprocessor(params.QMods, params.PMods, params.N(),
			params.Lifter, params.Scaler, variant, timing, slots)
	}
	platform, err := hwsim.NewPlatform(factory, coprocs)
	if err != nil {
		return nil, err
	}
	a := &Accelerator{Params: params, Variant: variant, Platform: platform, dma: hwsim.DMA{Timing: timing}}
	for _, c := range platform.Coprocs {
		a.scheds = append(a.scheds, &worker{s: sched.New(params, c)})
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

// NumCoprocessors returns the co-processor count.
func (a *Accelerator) NumCoprocessors() int { return len(a.scheds) }

// EnableIntegrity switches Freivalds-style fingerprint verification on for
// every co-processor, with per-instance seeds derived from seed. Operations
// then fail with an error wrapping hwsim.ErrIntegrity instead of returning a
// corrupted ciphertext.
func (a *Accelerator) EnableIntegrity(seed int64) error {
	for i, c := range a.Platform.Coprocs {
		if err := c.EnableIntegrity(seed + int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// SetFaultInjector attaches a fault injector to every co-processor (nil
// detaches). Engines share one injector across workers so a chaos schedule
// spans the pool.
func (a *Accelerator) SetFaultInjector(inj *faults.Injector) {
	for _, c := range a.Platform.Coprocs {
		c.SetInjector(inj)
	}
}

// SetMetrics routes the co-processors' integrity detection and recovery
// counters into reg (nil-safe).
func (a *Accelerator) SetMetrics(reg *obs.Registry) {
	for _, c := range a.Platform.Coprocs {
		c.SetMetrics(reg)
	}
}

// worker 0 serves sequential calls; MulBatch spreads over all of them.
func (a *Accelerator) onWorker(i int, f func(*sched.Scheduler) error) error {
	w := a.scheds[i%len(a.scheds)]
	w.mu.Lock()
	defer w.mu.Unlock()
	return f(w.s)
}

// transferReport fills the operand-send and result-receive rows of a report
// from the DMA model (Table I rows 4–5: two ciphertexts in, one out).
func (a *Accelerator) transferReport(rep *Report) {
	polyBytes := hwsim.PolyBytes(a.Params.N(), a.Params.QBasis.K())
	rep.SendCycles = a.TransferCycles(4 * polyBytes)
	rep.ReceiveCycles = a.TransferCycles(2 * polyBytes)
}

// TransferCycles returns the co-processor cycles of one DMA transfer of
// `bytes` under the timing calibration the accelerator was built with — the
// one its co-processors run on.
func (a *Accelerator) TransferCycles(bytes int) hwsim.Cycles {
	return a.dma.FPGACycles(hwsim.Transfer{Bytes: bytes})
}

// Add computes FV.Add on the accelerator.
func (a *Accelerator) Add(x, y *fv.Ciphertext) (*fv.Ciphertext, Report, error) {
	var ct *fv.Ciphertext
	var rep Report
	err := a.onWorker(0, func(s *sched.Scheduler) error {
		s.C.ResetStats()
		res, cycles, err := s.Add(x, y)
		if err != nil {
			return err
		}
		ct = res
		rep.ComputeCycles = cycles
		return nil
	})
	a.transferReport(&rep)
	return ct, rep, err
}

// Mul computes FV.Mult on the accelerator, returning the relinearized
// ciphertext and the timing report.
func (a *Accelerator) Mul(x, y *fv.Ciphertext, rk *fv.RelinKey) (*fv.Ciphertext, Report, error) {
	var ct *fv.Ciphertext
	var rep Report
	err := a.onWorker(0, func(s *sched.Scheduler) error {
		s.C.ResetStats()
		res, cycles, err := s.Mul(x, y, rk)
		if err != nil {
			return err
		}
		ct = res
		rep.ComputeCycles = cycles
		return nil
	})
	a.transferReport(&rep)
	return ct, rep, err
}

// MulStream runs independent multiplications as one double-buffered stream
// on co-processor 0: while step i computes, step i+1's operands are DMAed
// into a shadow bank of the memory file, so the pipelined makespan beats the
// back-to-back serial cost by exactly the overlapped transfer cycles.
// Results are bit-identical to calling Mul in a loop; the StreamReport
// carries the per-step profile and the exact serial/pipelined schedule.
func (a *Accelerator) MulStream(xs, ys []*fv.Ciphertext, rk *fv.RelinKey) ([]*fv.Ciphertext, sched.StreamReport, error) {
	if len(xs) != len(ys) {
		return nil, sched.StreamReport{}, fmt.Errorf("core: operand count mismatch")
	}
	pairs := make([][2]*fv.Ciphertext, len(xs))
	for i := range xs {
		pairs[i] = [2]*fv.Ciphertext{xs[i], ys[i]}
	}
	var results []*fv.Ciphertext
	var rep sched.StreamReport
	err := a.onWorker(0, func(s *sched.Scheduler) error {
		s.C.ResetStats()
		ps := &sched.PipelinedScheduler{S: s, Banks: 2}
		res, sr, err := ps.MulStream(pairs, rk)
		if err != nil {
			return err
		}
		results, rep = res, sr
		return nil
	})
	return results, rep, err
}

// Rotate applies a Galois automorphism with key switch on the accelerator.
func (a *Accelerator) Rotate(x *fv.Ciphertext, gk *fv.GaloisKey) (*fv.Ciphertext, Report, error) {
	var ct *fv.Ciphertext
	var rep Report
	err := a.onWorker(0, func(s *sched.Scheduler) error {
		s.C.ResetStats()
		res, cycles, err := s.Rotate(x, gk)
		if err != nil {
			return err
		}
		ct = res
		rep.ComputeCycles = cycles
		return nil
	})
	a.transferReport(&rep)
	return ct, rep, err
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
	perWorker := make([]float64, len(a.scheds))
	errs := make([]error, len(a.scheds))
	var wg sync.WaitGroup
	for w := range a.scheds {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(xs); i += len(a.scheds) {
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

// Stats returns co-processor 0's accumulated per-instruction statistics.
func (a *Accelerator) Stats() *hwsim.Stats { return a.scheds[0].s.C.Stats }

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

// KeyStreamCycles returns the co-processor cycles of streaming `bytes` of
// evaluation-key material over the DMA (a single transfer, the paper's
// Table III optimum).
func (a *Accelerator) KeyStreamCycles(bytes int) hwsim.Cycles {
	return a.TransferCycles(bytes)
}
