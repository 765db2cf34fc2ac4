package core

import (
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/hwsim"
	"repro/internal/obs"
)

// pool is the accelerator body both schemes share: one scheduler behind one
// lock, beside the ledger its co-processor charges and the handle the
// robustness attachments hang on, and the transfer model the reports are
// filled from. Accelerator and CKKSAccelerator embed one; the methods below
// are theirs. Several co-processors are a layer above: internal/engine holds
// one accelerator per worker.
type pool[S any] struct {
	n int // ring degree
	// dma is the transfer model under the accelerator's own timing
	// calibration: operand, result and key-stream accounting must see the
	// DMA the co-processors were built with, not the default one.
	dma hwsim.DMA

	mu    sync.Mutex
	s     S
	stats *hwsim.Stats
	guard guarded
}

// guarded is what integrity checking, fault injection and metrics attach to:
// a BFV scheduler's co-processor, or a CKKS scheduler standing for its chain
// co-processors.
type guarded interface {
	EnableIntegrity(seed int64) error
	SetInjector(*faults.Injector)
	SetMetrics(*obs.Registry)
}

// oneCoproc refuses every co-processor count but one. The constructors keep
// the parameter only because bench/ passes it (always 1); it leaves with
// ROADMAP item 2(iv), once bench/ no longer names the twin constructors.
func oneCoproc(coprocs int) error {
	if coprocs != 1 {
		return fmt.Errorf("core: an accelerator is one co-processor, got coprocs = %d (internal/engine runs several, one per worker)", coprocs)
	}
	return nil
}

// EnableIntegrity switches Freivalds-style fingerprint verification on for
// the co-processor. Operations then fail with an error wrapping
// hwsim.ErrIntegrity instead of returning a corrupted ciphertext.
func (p *pool[S]) EnableIntegrity(seed int64) error { return p.guard.EnableIntegrity(seed) }

// SetFaultInjector attaches a fault injector to the co-processor (nil
// detaches). Engines share one injector across workers so a chaos schedule
// spans the pool.
func (p *pool[S]) SetFaultInjector(inj *faults.Injector) { p.guard.SetInjector(inj) }

// SetMetrics routes the co-processor's integrity detection and recovery
// counters into reg (nil-safe).
func (p *pool[S]) SetMetrics(reg *obs.Registry) { p.guard.SetMetrics(reg) }

// Stats returns the per-instruction ledger of the last operation: Add, Mul
// and Rotate each start from a cleared ledger, under both schemes.
func (p *pool[S]) Stats() *hwsim.Stats { return p.stats }

// KeyStreamCycles returns the co-processor cycles of streaming `bytes` of
// evaluation-key material over the DMA (a single transfer, the paper's
// Table III optimum).
func (p *pool[S]) KeyStreamCycles(bytes int) hwsim.Cycles { return p.transferCycles(bytes) }

func (p *pool[S]) transferCycles(bytes int) hwsim.Cycles {
	return p.dma.FPGACycles(hwsim.Transfer{Bytes: bytes})
}

// run is the one operation wrapper: op executes from a cleared ledger, and
// its compute cycles join the operand and result transfers of the DMA model
// — polysIn polynomials of rowsIn residue rows in, the two result
// polynomials of rowsOut rows out (Table I rows 4–5) — in the Report.
func run[S, C any](p *pool[S], polysIn, rowsIn, rowsOut int, op func(S) (C, hwsim.Cycles, error)) (C, Report, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Reset()
	ct, cycles, err := op(p.s)
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
