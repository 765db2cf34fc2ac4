package engine

import (
	"time"
)

// batchKey identifies operations that can share one dispatch: they use the
// same evaluation key (or none), so a worker loads key material once for
// the whole group. This is the serving-layer analogue of the block-level
// pipeline in internal/sched: the co-processor's expensive resource (the
// relinearization-key DMA stream) is amortized across the block.
type batchKey struct {
	tenant string
	kind   OpKind
	g      int // Galois element; zero except for the rotations
}

// batch is one unit of worker dispatch.
type batch struct {
	key    batchKey
	reqs   []*request
	opened time.Time // when the first request was admitted to this batch
}

// dispatch is the batcher goroutine: it drains the admission queue into
// per-key pending groups and emits them to the worker pool. A group is
// emitted once it reaches MaxBatch; partial groups are emitted when the
// queue runs empty (plus an optional BatchLinger wait for stragglers).
// Requests that expired while queued are dropped here, before any worker
// sees them.
//
// Emission order is weighted-fair across tenants rather than FIFO: every
// tenant accumulates virtual time — ops emitted divided by its
// Config.TenantWeights weight — and whenever anything is emitted, pending
// groups go out in ascending virtual-time order (arrival order breaks
// ties). A tenant flooding full batches therefore cannot starve a light
// tenant's partial batch: the light tenant's virtual time stays behind the
// flooder's, so its group jumps the line at the next emission point. An
// idle tenant's clock is clamped forward on re-activation, so sitting out
// earns no credit.
func (e *Engine) dispatch() {
	defer e.wg.Done()
	defer close(e.batches)

	pending := make(map[batchKey]*batch)
	var order []batchKey // arrival order: iteration + virtual-time tie-break
	total := 0

	vtime := make(map[string]float64) // per-tenant virtual clock
	var globalVT float64              // virtual start of the last emission
	weight := func(tenant string) float64 {
		if w := e.cfg.TenantWeights[tenant]; w > 0 {
			return float64(w)
		}
		return 1
	}
	// emitFair hands b to the pool and advances its tenant's clock by the
	// weighted op count, clamping idle tenants up to globalVT first.
	emitFair := func(b *batch) {
		t := b.key.tenant
		start := vtime[t]
		if start < globalVT {
			start = globalVT
		}
		vtime[t] = start + float64(len(b.reqs))/weight(t)
		globalVT = start
		e.emit(b)
	}
	// emitNext emits the pending group whose tenant has the least virtual
	// time (earliest-arrived wins ties) and returns its key.
	emitNext := func() batchKey {
		best := -1
		for i, k := range order {
			if best < 0 || vtime[k.tenant] < vtime[order[best].tenant] {
				best = i
			}
		}
		k := order[best]
		order = append(order[:best], order[best+1:]...)
		b := pending[k]
		delete(pending, k)
		total -= len(b.reqs)
		emitFair(b)
		return k
	}

	admit := func(r *request) {
		if r.expired(time.Now()) {
			e.expire(r)
			return
		}
		k := r.key
		b := pending[k]
		if b == nil {
			b = &batch{key: k, opened: time.Now()}
			pending[k] = b
			order = append(order, k)
		}
		b.reqs = append(b.reqs, r)
		total++
		if len(b.reqs) >= e.cfg.MaxBatch {
			// A full group forces an emission point; everything cheaper in
			// virtual time goes out ahead of it.
			for pending[k] != nil {
				emitNext()
			}
		}
	}
	flushAll := func() {
		for len(order) > 0 {
			emitNext()
		}
		total = 0
	}

	for {
		if total == 0 {
			// Idle: block for the next request.
			r, ok := <-e.queue
			if !ok {
				return
			}
			admit(r)
			continue
		}
		// Pending work exists: keep draining without blocking; when the
		// queue is empty (optionally after a linger window) flush what we
		// have. emit blocks while all workers are busy, which is exactly
		// when the admission queue should fill and start rejecting.
		if e.cfg.BatchLinger <= 0 {
			select {
			case r, ok := <-e.queue:
				if !ok {
					flushAll()
					return
				}
				admit(r)
			default:
				flushAll()
			}
			continue
		}
		linger := time.NewTimer(e.cfg.BatchLinger)
		select {
		case r, ok := <-e.queue:
			if !ok {
				flushAll()
				linger.Stop()
				return
			}
			admit(r)
			linger.Stop()
		case <-linger.C:
			flushAll()
		}
	}
}

// emit hands a batch to the worker pool, counting it and recording how long
// the batch spent assembling (first admit to dispatch).
func (e *Engine) emit(b *batch) {
	e.m.batches.Add(1)
	e.m.batchedOps.Add(uint64(len(b.reqs)))
	e.m.batchAssembly.Observe(time.Since(b.opened))
	e.batches <- b
}
