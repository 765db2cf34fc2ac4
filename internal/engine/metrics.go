package engine

import (
	"sync/atomic"

	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/poly"
)

// HistogramStats re-exports the obs snapshot type: the engine's latency
// histograms are obs.Histograms, so every layer reports in the same shape.
type HistogramStats = obs.HistogramStats

// metrics is the engine's counter set. All fields are atomics; Stats takes
// a consistent-enough snapshot without stopping the world.
type metrics struct {
	submitted  atomic.Uint64
	rejected   atomic.Uint64
	expired    atomic.Uint64
	completed  atomic.Uint64
	failed     atomic.Uint64
	batches    atomic.Uint64
	batchedOps atomic.Uint64
	keyLoads   atomic.Uint64
	keyHits    atomic.Uint64
	keyEvicted atomic.Uint64

	// Robustness counters: integrity failures caught by the co-processor
	// checks, the subset recovered by op-level retry, workers ejected for
	// repeated failures, and operations refused by the noise guardrail.
	integrityFaults  atomic.Uint64
	integrityRetries atomic.Uint64
	quarantined      atomic.Uint64
	noiseRejected    atomic.Uint64
	quotaRejected    atomic.Uint64

	// Program-mode counters: programs completed and the DAG nodes they
	// executed (a program is one admission unit but many ops).
	programs     atomic.Uint64
	programNodes atomic.Uint64

	// queueWait is admission-to-dispatch, batchAssembly is the age of a
	// batch when it is handed to a worker (first admit to emit), execTime is
	// per-op worker service time — the three legs of a request's life.
	queueWait     obs.Histogram
	batchAssembly obs.Histogram
	execTime      obs.Histogram
}

// tenantCounters accumulates per-tenant accounting; all atomics, updated by
// workers and snapshotted by Stats without locks. inflight is the tenant's
// live admission count — the value the TenantQuota cap compares against.
type tenantCounters struct {
	completed     atomic.Uint64
	failed        atomic.Uint64
	keyLoads      atomic.Uint64
	keyEvictions  atomic.Uint64
	simCycles     atomic.Uint64
	programs      atomic.Uint64
	quotaRejected atomic.Uint64
	inflight      atomic.Int64
}

// TenantStats is the per-tenant slice of a Stats snapshot: how much load a
// key namespace has put on this node. The cluster router reads this to see
// placement and per-tenant load — SimSeconds is the simulated co-processor
// time the tenant consumed here.
type TenantStats struct {
	Completed  uint64
	Failed     uint64
	KeyLoads   uint64
	SimCycles  uint64
	SimSeconds float64
	// Programs counts whole compiled programs this tenant completed here.
	Programs uint64
	// KeyEvictions counts this tenant's keys evicted from worker caches by
	// other key loads — the cache-pressure cost migration planning watches.
	KeyEvictions uint64
	// QuotaRejected counts admissions refused by the per-tenant quota;
	// Inflight is the tenant's current live admission count.
	QuotaRejected uint64
	Inflight      int64
}

// WorkerStats is the per-worker accounting slice of a Stats snapshot.
type WorkerStats struct {
	Ops       uint64
	KeyLoads  uint64
	SimCycles uint64
	// SimSeconds is the simulated co-processor busy time (compute plus
	// evaluation-key streaming) — the denominator of the paper's
	// throughput numbers.
	SimSeconds float64
	// ResidentKeys is the current evaluation-key cache occupancy.
	ResidentKeys int
	// IntegrityFaults counts ops on this worker that tripped an integrity
	// check; Quarantined is set once the worker was ejected for them.
	IntegrityFaults uint64
	Quarantined     bool
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	Workers    int
	QueueDepth int
	QueueLen   int

	Submitted uint64
	Rejected  uint64
	Expired   uint64
	Completed uint64
	Failed    uint64

	Batches    uint64
	BatchedOps uint64
	AvgBatch   float64

	KeyLoads     uint64
	KeyHits      uint64
	KeyEvictions uint64

	// IntegrityFaults/IntegrityRetries/Quarantined/NoiseRejected are the
	// robustness ledger: detections, op-level recoveries, ejected workers,
	// and guardrail refusals. LiveWorkers is Workers minus quarantined.
	IntegrityFaults  uint64
	IntegrityRetries uint64
	Quarantined      uint64
	NoiseRejected    uint64
	QuotaRejected    uint64
	LiveWorkers      int

	// Programs counts completed compiled programs; ProgramNodes the DAG
	// nodes executed for them (not double-counted in Completed, which stays
	// op-at-a-time).
	Programs     uint64
	ProgramNodes uint64

	QueueWait     HistogramStats
	BatchAssembly HistogramStats
	ExecTime      HistogramStats

	PerWorker []WorkerStats

	// PerTenant maps each key namespace that has sent traffic to its share
	// of the node's load.
	PerTenant map[string]TenantStats `json:",omitempty"`

	// Pool is the shared goroutine pool's accounting, present when the
	// parameter set's pool has metrics enabled (heserver enables it).
	Pool *poly.PoolStats `json:",omitempty"`
}

// keyEvicted records one evaluation-key eviction, attributed to the tenant
// whose key was displaced: the engine-global counter, the victim tenant's
// counter, and (when a Registry is wired) the per-tenant obs counter the
// migration tooling watches for cache pressure.
func (e *Engine) keyEvicted(tenant string) {
	e.m.keyEvicted.Add(1)
	e.tenant(tenant).keyEvictions.Add(1)
	if e.cfg.Registry != nil {
		e.cfg.Registry.Counter("keycache_evictions:" + tenant).Add(1)
	}
}

// Stats snapshots the engine's observability counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:          len(e.workers),
		QueueDepth:       e.cfg.QueueDepth,
		QueueLen:         len(e.queue),
		Submitted:        e.m.submitted.Load(),
		Rejected:         e.m.rejected.Load(),
		Expired:          e.m.expired.Load(),
		Completed:        e.m.completed.Load(),
		Failed:           e.m.failed.Load(),
		Batches:          e.m.batches.Load(),
		BatchedOps:       e.m.batchedOps.Load(),
		KeyLoads:         e.m.keyLoads.Load(),
		KeyHits:          e.m.keyHits.Load(),
		KeyEvictions:     e.m.keyEvicted.Load(),
		IntegrityFaults:  e.m.integrityFaults.Load(),
		IntegrityRetries: e.m.integrityRetries.Load(),
		Quarantined:      e.m.quarantined.Load(),
		NoiseRejected:    e.m.noiseRejected.Load(),
		QuotaRejected:    e.m.quotaRejected.Load(),
		LiveWorkers:      int(e.liveWorkers.Load()),
		Programs:         e.m.programs.Load(),
		ProgramNodes:     e.m.programNodes.Load(),
		QueueWait:        e.m.queueWait.Snapshot(),
		BatchAssembly:    e.m.batchAssembly.Snapshot(),
		ExecTime:         e.m.execTime.Snapshot(),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.BatchedOps) / float64(s.Batches)
	}
	for _, w := range e.workers {
		cyc := w.simCycles.Load()
		s.PerWorker = append(s.PerWorker, WorkerStats{
			Ops:             w.ops.Load(),
			KeyLoads:        w.keyLoads.Load(),
			SimCycles:       cyc,
			SimSeconds:      hwsim.Cycles(cyc).Seconds(),
			ResidentKeys:    int(w.resident.Load()),
			IntegrityFaults: w.integrityFails.Load(),
			Quarantined:     w.quarantined.Load(),
		})
	}
	e.tmu.RLock()
	if len(e.tenants) > 0 {
		s.PerTenant = make(map[string]TenantStats, len(e.tenants))
		for name, tc := range e.tenants {
			cyc := tc.simCycles.Load()
			s.PerTenant[name] = TenantStats{
				Completed:     tc.completed.Load(),
				Failed:        tc.failed.Load(),
				KeyLoads:      tc.keyLoads.Load(),
				SimCycles:     cyc,
				SimSeconds:    hwsim.Cycles(cyc).Seconds(),
				Programs:      tc.programs.Load(),
				KeyEvictions:  tc.keyEvictions.Load(),
				QuotaRejected: tc.quotaRejected.Load(),
				Inflight:      tc.inflight.Load(),
			}
		}
	}
	e.tmu.RUnlock()
	if pool := e.cfg.Params.Pool; pool.MetricsEnabled() {
		ps := pool.Stats()
		s.Pool = &ps
	}
	return s
}
