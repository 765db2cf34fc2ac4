package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sched"
)

// worker is one pool member: an application core running the scheduler of
// its own simulated co-processor, plus the model of which evaluation keys
// are currently resident on that co-processor.
type worker struct {
	id    int
	hw    *sched.Scheduler
	cache *keyCache
	// ev is the software evaluator for program nodes the co-processor has
	// no instruction for (subtraction, plaintext operands, lazy
	// relinearization); their cost is still charged in modeled FPGA cycles
	// so makespans stay comparable.
	ev *fv.Evaluator
	// ckks, when non-nil, is the worker's approximate-arithmetic lane
	// (engine built with Config.CKKSParams).
	ckks *ckksWorker

	// Accumulated accounting, read concurrently by Stats.
	ops       atomic.Uint64
	simCycles atomic.Uint64 // hwsim.Cycles of compute + key streaming
	keyLoads  atomic.Uint64
	resident  atomic.Int64 // current key-cache occupancy, mirrored for Stats

	// integrityFails counts ops on this worker that tripped an integrity
	// check; quarantined is set when the worker is ejected from the pool.
	integrityFails atomic.Uint64
	quarantined    atomic.Bool
}

func newWorker(id int, hw *sched.Scheduler, cacheSlots int, ev *fv.Evaluator) *worker {
	return &worker{id: id, hw: hw, cache: newKeyCache(cacheSlots), ev: ev}
}

// keyStreamCycles returns the co-processor cycles of streaming `bytes` of
// evaluation-key material over its DMA engine (a single transfer, the
// paper's Table III optimum).
func (w *worker) keyStreamCycles(bytes int) hwsim.Cycles {
	return w.hw.C.DMAEng.FPGACycles(hwsim.Transfer{Bytes: bytes})
}

// job is one unit of work on the engine's job stream: an op batch from the
// batcher or one node of an in-flight program.
type job interface {
	run(e *Engine, w *worker)
}

// run executes one batch on w: resolve the evaluation key once, charge the
// simulated key-DMA stream if the key is not resident, then run every
// still-live request sequentially on the worker's co-processor.
func (b *batch) run(e *Engine, w *worker) {
	tc := e.tenant(b.key.tenant)
	info := b.key.kind.info()

	var (
		key       evalKey
		keyCycles hwsim.Cycles
		keyHit    bool
	)
	if info.key != keyNone {
		id := keyID{b.key.tenant, info.scheme, info.key, b.key.g}
		var ok bool
		if key, ok = e.keys.get(id); !ok {
			e.failBatch(b, fmt.Errorf("%w: %v", ErrNoKey, id))
			return
		}
		hit, victim, evicted := w.cache.touch(id)
		w.resident.Store(int64(w.cache.len()))
		keyHit = hit
		if evicted {
			e.keyEvicted(victim.tenant)
		}
		if hit {
			e.m.keyHits.Add(1)
		} else {
			e.m.keyLoads.Add(1)
			w.keyLoads.Add(1)
			tc.keyLoads.Add(1)
			keyCycles = w.keyStreamCycles(key.bytes)
			w.simCycles.Add(uint64(keyCycles))
		}
	}

	for _, r := range b.reqs {
		now := time.Now()
		if r.expired(now) != nil {
			e.expire(r)
			continue
		}
		e.m.queueWait.Observe(now.Sub(r.admitted))

		start := time.Now()
		ct, cct, rep, err := e.exec(w, &r.op, key)
		e.m.execTime.Observe(time.Since(start))
		if err != nil {
			if errors.Is(err, hwsim.ErrIntegrity) {
				// The co-processor caught corrupted state before any result
				// left the node. Self-heal at the op level: re-enqueue the
				// request — the operands are pristine client uploads, and a
				// retry restarts from them, usually on a different worker.
				if r.retries < e.cfg.MaxIntegrityRetries {
					r.retries++
					if e.resubmit(r) {
						e.m.integrityRetries.Add(1)
						continue
					}
				}
				err = fmt.Errorf("%w (after %d integrity retries)", err, r.retries)
			}
			e.m.failed.Add(1)
			tc.failed.Add(1)
			e.finish(r, nil, err)
			continue
		}
		// The batch's key stream is charged to the first op completed — the
		// others find the key resident, which is the point of batching.
		rep.KeyLoadCycles, keyCycles = keyCycles, 0
		w.ops.Add(1)
		w.simCycles.Add(uint64(rep.ComputeCycles))
		e.m.completed.Add(1)
		tc.completed.Add(1)
		tc.simCycles.Add(uint64(rep.ComputeCycles + rep.KeyLoadCycles))
		e.finish(r, &Result{
			Ct:     ct,
			CCt:    cct,
			Report: rep,
			Worker: w.id,
			Batch:  len(b.reqs),
			KeyHit: keyHit,
			Wait:   now.Sub(r.admitted),
		}, nil)
	}
}

// exec serves one operation on w — the one dispatch both op-at-a-time
// batches and program nodes go through for the kinds the co-processors run.
// key is the kind's evaluation key (zero for the kinds that need none); the
// result comes back in the scheme's own ciphertext type. The CKKS plaintext
// kinds run on the application core's software evaluator (zero co-processor
// cycles in the report). An integrity trip is
// accounted here, against the engine and the worker; what to do about it —
// resubmit the request, redo the node — stays with the caller.
func (e *Engine) exec(w *worker, op *Op, key evalKey) (ct *fv.Ciphertext, cct *ckks.Ciphertext, rep sched.Report, err error) {
	ck := w.ckks
	if ck == nil && op.Kind.info().scheme == schemeCKKS {
		return nil, nil, sched.Report{}, ErrCKKSUnavailable
	}
	switch op.Kind {
	case OpAdd:
		ct, rep, err = w.hw.Add(op.A, op.B)
	case OpMul:
		ct, rep, err = w.hw.Mul(op.A, op.B, key.key.(*fv.RelinKey))
	case OpRotate:
		ct, rep, err = w.hw.Rotate(op.A, key.key.(*fv.GaloisKey))
	case OpCKKSAdd:
		a, b := ck.alignLevels(op.CA, op.CB)
		cct, rep, err = ck.hw.Add(a, b)
	case OpCKKSMul:
		a, b := ck.alignLevels(op.CA, op.CB)
		cct, rep, err = ck.hw.MulRescale(a, b, key.key.(*ckks.RelinKey))
	case OpCKKSRotate:
		cct, rep, err = ck.hw.Rotate(op.CA, op.R, key.key.(*ckks.GaloisKey))
	case OpCKKSAddPlain:
		cct, err = ck.addPlain(op.CA, op.Plain)
	case OpCKKSMulPlain:
		cct, err = ck.mulPlain(op.CA, op.Plain)
	default:
		err = fmt.Errorf("engine: %v has a table row but no dispatch", op.Kind)
	}
	if errors.Is(err, hwsim.ErrIntegrity) {
		e.m.integrityFaults.Add(1)
		w.integrityFails.Add(1)
	}
	return ct, cct, rep, err
}

// shouldQuarantine decides, after a job, whether w has misbehaved enough
// (Config.QuarantineAfter integrity failures) to eject from the pool. The
// CAS on the live-worker count guarantees the last live worker is never
// ejected — a fully-faulted pool degrades to typed errors, it does not
// deadlock the batcher.
func (e *Engine) shouldQuarantine(w *worker) bool {
	if e.cfg.QuarantineAfter < 0 || w.quarantined.Load() {
		return false
	}
	if w.integrityFails.Load() < uint64(e.cfg.QuarantineAfter) {
		return false
	}
	for {
		live := e.liveWorkers.Load()
		if live <= 1 {
			return false
		}
		if e.liveWorkers.CompareAndSwap(live, live-1) {
			w.quarantined.Store(true)
			e.m.quarantined.Add(1)
			return true
		}
	}
}

// failBatch completes every request in b with err.
func (e *Engine) failBatch(b *batch, err error) {
	tc := e.tenant(b.key.tenant)
	for _, r := range b.reqs {
		e.m.failed.Add(uint64(1))
		tc.failed.Add(1)
		e.finish(r, nil, err)
	}
}
