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

// batch is one op job on the worker pool's job stream.
type batch struct {
	key    batchKey
	reqs   []*request
	opened time.Time // when the first request was admitted to this batch
}

// dispatch is the batcher goroutine, one of the job stream's producers: it
// drains the admission queue into per-key pending groups and emits them to
// the worker pool. A group is emitted once it reaches MaxBatch; partial
// groups are emitted when the queue runs empty. Requests that expired while
// queued are dropped here, before any worker sees them.
//
// Emission order is fair across tenants rather than FIFO: every tenant
// accumulates virtual time — the ops emitted for it — and whenever anything
// is emitted, pending groups go out in ascending virtual-time order (arrival
// order breaks ties). A tenant flooding full batches therefore cannot starve
// a light tenant's partial batch: the light tenant's virtual time stays
// behind the flooder's, so its group jumps the line at the next emission
// point. An idle tenant's clock is clamped forward on re-activation, so
// sitting out earns no credit.
func (e *Engine) dispatch() {
	defer e.producers.Done()

	pending := make(map[batchKey]*batch)
	var order []batchKey          // arrival order: iteration + virtual-time tie-break
	vtime := make(map[string]int) // per-tenant virtual clock
	globalVT := 0                 // virtual start of the last emission

	// emitNext emits the pending group whose tenant has the least virtual
	// time (earliest-arrived wins ties) and advances that tenant's clock by
	// the group's ops, clamping an idle tenant up to globalVT first.
	emitNext := func() {
		best := 0
		for i, k := range order {
			if vtime[k.tenant] < vtime[order[best].tenant] {
				best = i
			}
		}
		k := order[best]
		order = append(order[:best], order[best+1:]...)
		b := pending[k]
		delete(pending, k)
		start := max(vtime[k.tenant], globalVT)
		vtime[k.tenant] = start + len(b.reqs)
		globalVT = start
		e.emit(b)
	}
	flush := func() {
		for len(order) > 0 {
			emitNext()
		}
	}
	take := func(r *request) {
		if r.expired(time.Now()) != nil {
			e.expire(r)
			return
		}
		b := pending[r.key]
		if b == nil {
			b = &batch{key: r.key, opened: time.Now()}
			pending[r.key] = b
			order = append(order, r.key)
		}
		b.reqs = append(b.reqs, r)
		if len(b.reqs) >= e.cfg.MaxBatch {
			// A full group forces an emission point; everything cheaper in
			// virtual time goes out ahead of it.
			for pending[r.key] != nil {
				emitNext()
			}
		}
	}

	for {
		// Block for the next request only when nothing is pending; with
		// pending work, keep draining without blocking and flush once the
		// queue runs empty. emit blocks while all workers are busy, which is
		// exactly when the admission queue should fill and start rejecting.
		var r *request
		ok := true
		if len(order) == 0 {
			r, ok = <-e.queue
		} else {
			select {
			case r, ok = <-e.queue:
			default:
				flush()
				continue
			}
		}
		if !ok {
			flush()
			return
		}
		take(r)
	}
}

// emit hands a batch to the worker pool, counting it and recording how long
// the batch spent assembling (first admit to dispatch).
func (e *Engine) emit(b *batch) {
	e.m.batches.Add(1)
	e.m.batchedOps.Add(uint64(len(b.reqs)))
	e.m.batchAssembly.Observe(time.Since(b.opened))
	e.jobs <- b
}
