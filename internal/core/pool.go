package core

import (
	"sync"

	"repro/internal/faults"
	"repro/internal/hwsim"
	"repro/internal/obs"
)

// pool is the accelerator body both schemes share: the schedulers, each
// behind its own lock beside the ledger its co-processors charge and the
// handle the robustness attachments hang on, and the transfer model the
// reports are filled from. Accelerator and CKKSAccelerator embed one; the
// methods below are theirs.
type pool[S any] struct {
	n int // ring degree
	// dma is the transfer model under the accelerator's own timing
	// calibration: operand, result and key-stream accounting must see the
	// DMA the co-processors were built with, not the default one.
	dma     hwsim.DMA
	workers []*worker[S]
	// seedStride spaces the integrity seeds of consecutive workers.
	seedStride int64
}

type worker[S any] struct {
	mu    sync.Mutex
	s     S
	stats *hwsim.Stats
	guard guarded
}

// guarded is what integrity checking, fault injection and metrics attach to:
// a BFV worker's co-processor, or a CKKS scheduler standing for its chain
// co-processors.
type guarded interface {
	EnableIntegrity(seed int64) error
	SetInjector(*faults.Injector)
	SetMetrics(*obs.Registry)
}

func (p *pool[S]) add(s S, stats *hwsim.Stats, guard guarded) {
	p.workers = append(p.workers, &worker[S]{s: s, stats: stats, guard: guard})
}

// NumCoprocessors returns the co-processor (scheduler) count.
func (p *pool[S]) NumCoprocessors() int { return len(p.workers) }

// EnableIntegrity switches Freivalds-style fingerprint verification on for
// every co-processor, with per-instance seeds derived from seed. Operations
// then fail with an error wrapping hwsim.ErrIntegrity instead of returning a
// corrupted ciphertext.
func (p *pool[S]) EnableIntegrity(seed int64) error {
	for i, w := range p.workers {
		if err := w.guard.EnableIntegrity(seed + p.seedStride*int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// SetFaultInjector attaches a fault injector to every co-processor (nil
// detaches). Engines share one injector across workers so a chaos schedule
// spans the pool.
func (p *pool[S]) SetFaultInjector(inj *faults.Injector) {
	for _, w := range p.workers {
		w.guard.SetInjector(inj)
	}
}

// SetMetrics routes the co-processors' integrity detection and recovery
// counters into reg (nil-safe).
func (p *pool[S]) SetMetrics(reg *obs.Registry) {
	for _, w := range p.workers {
		w.guard.SetMetrics(reg)
	}
}

// Stats returns worker 0's per-instruction ledger of the last operation it
// ran: Add, Mul and Rotate each start from a cleared ledger, under both
// schemes.
func (p *pool[S]) Stats() *hwsim.Stats { return p.workers[0].stats }

// KeyStreamCycles returns the co-processor cycles of streaming `bytes` of
// evaluation-key material over the DMA (a single transfer, the paper's
// Table III optimum).
func (p *pool[S]) KeyStreamCycles(bytes int) hwsim.Cycles { return p.transferCycles(bytes) }

func (p *pool[S]) transferCycles(bytes int) hwsim.Cycles {
	return p.dma.FPGACycles(hwsim.Transfer{Bytes: bytes})
}

// onWorker runs f on worker i's scheduler under its lock. Worker 0 serves
// sequential calls; MulBatch spreads over all of them.
func (p *pool[S]) onWorker(i int, f func(S) error) error {
	w := p.workers[i%len(p.workers)]
	w.mu.Lock()
	defer w.mu.Unlock()
	return f(w.s)
}

// run is the one operation wrapper: op executes on worker 0 from a cleared
// ledger, and its compute cycles join the operand and result transfers of
// the DMA model — polysIn polynomials of rowsIn residue rows in, the two
// result polynomials of rowsOut rows out (Table I rows 4–5) — in the Report.
func run[S, C any](p *pool[S], polysIn, rowsIn, rowsOut int, op func(S) (C, hwsim.Cycles, error)) (C, Report, error) {
	w := p.workers[0]
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.Reset()
	ct, cycles, err := op(w.s)
	if err != nil {
		var none C
		return none, Report{}, err
	}
	return ct, Report{
		ComputeCycles: cycles,
		SendCycles:    p.transferCycles(polysIn * hwsim.PolyBytes(p.n, rowsIn)),
		ReceiveCycles: p.transferCycles(2 * hwsim.PolyBytes(p.n, rowsOut)),
	}, nil
}
