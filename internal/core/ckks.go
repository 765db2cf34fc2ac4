package core

import (
	"sync"

	"repro/internal/ckks"
	"repro/internal/faults"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/sched"
)

// CKKSAccelerator is the approximate-arithmetic sibling of Accelerator: the
// same simulated Arm+FPGA platform serving CKKS operations through the chain
// co-processor. Results are bit-exact against the pure-software
// ckks.Evaluator, and every operation returns the same Report shape as the
// BFV path so serving layers account both schemes uniformly.
type CKKSAccelerator struct {
	Params *ckks.Params

	dma    hwsim.DMA // under the accelerator's own timing, as Accelerator.dma
	scheds []*ckksWorker
}

type ckksWorker struct {
	mu sync.Mutex
	s  *sched.CKKSScheduler
}

// NewCKKS builds a CKKS accelerator with `coprocs` scheduler instances (the
// chain co-processors underneath are built lazily per level).
func NewCKKS(params *ckks.Params, coprocs int) (*CKKSAccelerator, error) {
	return NewCKKSWithTiming(params, coprocs, hwsim.DefaultTiming())
}

// NewCKKSWithTiming builds a CKKS accelerator with explicit timing
// calibration.
func NewCKKSWithTiming(params *ckks.Params, coprocs int, timing hwsim.Timing) (*CKKSAccelerator, error) {
	if coprocs < 1 {
		coprocs = 1
	}
	a := &CKKSAccelerator{Params: params, dma: hwsim.DMA{Timing: timing}}
	for i := 0; i < coprocs; i++ {
		a.scheds = append(a.scheds, &ckksWorker{s: sched.NewCKKS(params, timing)})
	}
	return a, nil
}

// NumCoprocessors returns the scheduler-pool size.
func (a *CKKSAccelerator) NumCoprocessors() int { return len(a.scheds) }

// EnableIntegrity switches fingerprint verification on for every scheduler's
// chain co-processors, with per-instance seeds derived from seed.
func (a *CKKSAccelerator) EnableIntegrity(seed int64) error {
	for i, w := range a.scheds {
		if err := w.s.EnableIntegrity(seed + 1000*int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// SetFaultInjector attaches a fault injector to every scheduler (nil
// detaches).
func (a *CKKSAccelerator) SetFaultInjector(inj *faults.Injector) {
	for _, w := range a.scheds {
		w.s.SetInjector(inj)
	}
}

// SetMetrics routes integrity detection and recovery counters into reg
// (nil-safe).
func (a *CKKSAccelerator) SetMetrics(reg *obs.Registry) {
	for _, w := range a.scheds {
		w.s.SetMetrics(reg)
	}
}

// Stats returns scheduler 0's accumulated per-instruction statistics.
func (a *CKKSAccelerator) Stats() *hwsim.Stats { return a.scheds[0].s.Stats }

func (a *CKKSAccelerator) onWorker(i int, f func(*sched.CKKSScheduler) error) error {
	w := a.scheds[i%len(a.scheds)]
	w.mu.Lock()
	defer w.mu.Unlock()
	return f(w.s)
}

// ckksTransferReport fills the operand-send and result-receive rows from the
// DMA model: sendPolys level-`sendLevel` polynomials in, two
// level-`recvLevel` polynomials out.
func (a *CKKSAccelerator) ckksTransferReport(rep *Report, sendPolys, sendLevel, recvLevel int) {
	rep.SendCycles = a.dma.FPGACycles(hwsim.Transfer{
		Bytes: sendPolys * hwsim.PolyBytes(a.Params.N(), sendLevel+1)})
	rep.ReceiveCycles = a.dma.FPGACycles(hwsim.Transfer{
		Bytes: 2 * hwsim.PolyBytes(a.Params.N(), recvLevel+1)})
}

// Add computes CKKS addition on the accelerator.
func (a *CKKSAccelerator) Add(x, y *ckks.Ciphertext) (*ckks.Ciphertext, Report, error) {
	var ct *ckks.Ciphertext
	var rep Report
	err := a.onWorker(0, func(s *sched.CKKSScheduler) error {
		res, cycles, err := s.Add(x, y)
		if err != nil {
			return err
		}
		ct = res
		rep.ComputeCycles = cycles
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	a.ckksTransferReport(&rep, 4, x.Level(), ct.Level())
	return ct, rep, nil
}

// Mul computes the full CKKS multiply — tensor, relinearization, and the
// trailing Rescale — returning the degree-1 result one level down. Compute
// cycles include the per-digit key streaming, as in the BFV Mult accounting.
func (a *CKKSAccelerator) Mul(x, y *ckks.Ciphertext, rk *ckks.RelinKey) (*ckks.Ciphertext, Report, error) {
	var ct *ckks.Ciphertext
	var rep Report
	err := a.onWorker(0, func(s *sched.CKKSScheduler) error {
		res, cycles, err := s.MulRescale(x, y, rk)
		if err != nil {
			return err
		}
		ct = res
		rep.ComputeCycles = cycles
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	a.ckksTransferReport(&rep, 4, x.Level(), ct.Level())
	return ct, rep, nil
}

// Rotate applies a slot rotation with key switch on the accelerator.
func (a *CKKSAccelerator) Rotate(x *ckks.Ciphertext, r int, gk *ckks.GaloisKey) (*ckks.Ciphertext, Report, error) {
	var ct *ckks.Ciphertext
	var rep Report
	err := a.onWorker(0, func(s *sched.CKKSScheduler) error {
		res, cycles, err := s.Rotate(x, r, gk)
		if err != nil {
			return err
		}
		ct = res
		rep.ComputeCycles = cycles
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	a.ckksTransferReport(&rep, 2, x.Level(), ct.Level())
	return ct, rep, nil
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

// KeyStreamCycles returns the co-processor cycles of streaming `bytes` of
// evaluation-key material over the DMA.
func (a *CKKSAccelerator) KeyStreamCycles(bytes int) hwsim.Cycles {
	return a.dma.FPGACycles(hwsim.Transfer{Bytes: bytes, Label: "evk stream"})
}
