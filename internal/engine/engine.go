// Package engine is the serving runtime between the network protocol
// (internal/cloud) and the simulated hardware (internal/sched): the software
// half of the paper's Fig. 11 deployment, generalized from "two application
// Arm cores driving two co-processors" to a configurable pool of N workers,
// each owning one simulated co-processor.
//
// The flow is
//
//	Submit → bounded admission queue → batcher → worker pool → sched.Scheduler
//
// with four properties the bare scheduler does not provide:
//
//   - Backpressure. The admission queue is bounded; when it is full Submit
//     fails immediately with ErrOverloaded instead of blocking, so offered
//     load beyond capacity turns into rejections, not memory growth.
//   - Deadlines. Every request carries a deadline (from the caller's context
//     or the engine default); requests that expire while queued are dropped
//     before they ever reach a co-processor.
//   - Batching. Compatible operations — same tenant, same operation kind,
//     same Galois element — are grouped and dispatched to one worker as a
//     unit, so the evaluation key is streamed to the co-processor once per
//     batch rather than once per op (the paper's observation that
//     relinearization-key DMA dominates Mult motivates exactly this
//     amortization; see Sec. V-D).
//   - Observability. Atomic counters, latency histograms, and per-worker
//     simulated-cycle totals are available as a Stats snapshot and via
//     expvar.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckks"
	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Sentinel errors returned by Submit.
var (
	// ErrOverloaded means the admission queue was full. The caller should
	// back off and retry; the engine sheds load instead of queueing
	// unboundedly.
	ErrOverloaded = errors.New("engine: overloaded (admission queue full)")
	// ErrShutdown means Shutdown was called before the request was admitted.
	ErrShutdown = errors.New("engine: shutting down")
	// ErrDeadlineExceeded means the request expired before a co-processor
	// picked it up; it was dropped without executing.
	ErrDeadlineExceeded = errors.New("engine: deadline exceeded before execution")
	// ErrNoKey means the tenant has not registered the evaluation key the
	// operation needs (relinearization key for Mul, Galois key for Rotate).
	ErrNoKey = errors.New("engine: no evaluation key registered")
	// ErrNoiseBudget means the noise guardrail predicted the operation would
	// exhaust the ciphertext's noise budget: the result would decrypt to
	// garbage, so the engine refuses to compute it. Deterministic — retrying
	// elsewhere fails the same way.
	ErrNoiseBudget = errors.New("engine: predicted noise budget exhausted")
	// ErrCKKSUnavailable means a CKKS operation was submitted to an engine
	// built without Config.CKKSParams. Deterministic — the node does not
	// serve the scheme.
	ErrCKKSUnavailable = errors.New("engine: ckks serving not configured")
	// ErrQuotaExceeded means the tenant already has Config.TenantQuota
	// operations in flight on this node: admission is refused so one flooding
	// tenant sheds its own load instead of filling the shared queue. Like
	// ErrOverloaded it is transient — the caller should back off and retry.
	ErrQuotaExceeded = errors.New("engine: per-tenant quota exceeded")
)

// OpKind enumerates the homomorphic operations the engine serves.
type OpKind uint8

const (
	OpAdd OpKind = iota + 1
	OpMul
	OpRotate
	// CKKS approximate-arithmetic kinds (Config.CKKSParams must be set).
	// Add/Mul/Rotate run on the chain co-processor; the Plain kinds execute
	// on the application core's software evaluator (the co-processor has no
	// plaintext-operand instruction) with the engine encoding the slot
	// vector at the ciphertext's level.
	OpCKKSAdd
	OpCKKSMul
	OpCKKSRotate
	OpCKKSAddPlain
	OpCKKSMulPlain
)

// Op is one homomorphic operation on uploaded ciphertexts.
type Op struct {
	Kind   OpKind
	Tenant string // evaluation-key namespace; "" is the default tenant
	A, B   *fv.Ciphertext
	G      int // Galois element (OpRotate only)
	// CKKS operands: CA (and CB for the two-ciphertext kinds), the slot
	// rotation count R (OpCKKSRotate), and the plaintext slot vector Plain
	// (OpCKKSAddPlain/OpCKKSMulPlain).
	CA, CB *ckks.Ciphertext
	R      int
	Plain  []float64
}

// Result is the outcome of a served operation.
type Result struct {
	Ct     *fv.Ciphertext
	CCt    *ckks.Ciphertext // result of a CKKS kind (Ct is nil)
	Report sched.Report
	Worker int           // which worker / simulated co-processor served it
	Batch  int           // how many ops rode in the same batch
	KeyHit bool          // evaluation key was already resident on the worker
	Wait   time.Duration // time spent in the admission queue
}

// Config parameterizes New. Zero values select the documented defaults.
type Config struct {
	// Params is the FV parameter set every worker's accelerator is built
	// for. Required.
	Params *fv.Params
	// CKKSParams, when non-nil, additionally equips every worker with a CKKS
	// chain accelerator, enabling the OpCKKS* kinds. Engines built without
	// it refuse those kinds with ErrCKKSUnavailable.
	CKKSParams *ckks.Params
	// Bench-only: must be hwsim.VariantHPS (the zero value); any other value
	// fails New with an error wrapping hwsim.ErrVariant (bench_api.go).
	Variant int
	// Workers is the number of pool workers, each owning one simulated
	// co-processor (default runtime.NumCPU()). The paper's platform is
	// Workers = 2 on a quad-core Arm.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects with ErrOverloaded.
	QueueDepth int
	// MaxBatch caps how many compatible ops are grouped into one dispatch
	// (default 8).
	MaxBatch int
	// Deadline is the default per-request deadline applied when the
	// caller's context has none (default 0: no deadline).
	Deadline time.Duration
	// KeyCacheSlots is the per-worker evaluation-key cache capacity in
	// keys (default 8). Keys beyond that are evicted LRU and must be
	// re-streamed (simulated DMA) on next use.
	KeyCacheSlots int
	// ExpvarName, when non-empty, publishes the Stats snapshot under this
	// expvar name. Publishing replaces any previous engine bound to the
	// name (tests building engine after engine all stay visible), and
	// Shutdown unbinds it.
	ExpvarName string

	// IntegrityChecks enables Freivalds-style fingerprint verification on
	// every worker's co-processor: corrupted state surfaces as an error
	// wrapping hwsim.ErrIntegrity instead of a wrong ciphertext, and the
	// engine retries/quarantines below. IntegritySeed parameterizes the
	// check weights (0 uses a fixed default).
	IntegrityChecks bool
	IntegritySeed   int64
	// FaultInjector, when non-nil, is attached to every worker's
	// co-processor — the chaos harness's hook. Production leaves it nil
	// (zero overhead).
	FaultInjector *faults.Injector
	// Registry, when non-nil, receives the hardware-level detection and
	// recovery counters (hw_integrity_*) alongside the engine's own.
	Registry *obs.Registry
	// MaxIntegrityRetries is how many times a request that failed an
	// integrity check is re-enqueued before its error is surfaced
	// (default 2). Retries restart from the pristine operand ciphertexts,
	// usually on a different worker.
	MaxIntegrityRetries int
	// QuarantineAfter ejects a worker from the pool after that many
	// integrity failures (default 3; negative disables). The last live
	// worker is never quarantined, so the engine degrades rather than
	// bricks.
	QuarantineAfter int

	// TenantQuota caps how many operations one tenant may have in flight on
	// this node (admitted but not yet completed; a program counts as one).
	// Beyond the cap Submit fails fast with ErrQuotaExceeded, so a flooding
	// tenant is shed before it can fill the shared admission queue.
	// 0 disables the cap.
	TenantQuota int
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Params == nil {
		return cfg, errors.New("engine: Config.Params is required")
	}
	if err := cfg.checkVariant(); err != nil {
		return cfg, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.KeyCacheSlots <= 0 {
		cfg.KeyCacheSlots = 8
	}
	if cfg.MaxIntegrityRetries <= 0 {
		cfg.MaxIntegrityRetries = 2
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	return cfg, nil
}

// ticket is what admission hands one unit of work, an op or a whole
// program: the tenant counters holding its quota unit, and when it stops
// being worth running.
type ticket struct {
	tc       *tenantCounters
	ctx      context.Context
	deadline time.Time // zero = none
	admitted time.Time
}

// expired is the one expiry check, made on a queued op before it runs and on
// a program before each wavefront: the caller's context is done (its error),
// or the deadline has passed (ErrDeadlineExceeded).
func (t *ticket) expired(now time.Time) error {
	if err := t.ctx.Err(); err != nil {
		return err
	}
	if !t.deadline.IsZero() && now.After(t.deadline) {
		return ErrDeadlineExceeded
	}
	return nil
}

// request is one queued operation and its completion plumbing.
type request struct {
	ticket
	op Op
	// key is what the batcher groups by, fixed at admission: tenant, kind
	// and — for the rotations of either scheme — the Galois element.
	key     batchKey
	retries int // integrity-failure re-enqueues so far

	res  *Result
	err  error
	done chan struct{}
}

// Engine is the serving runtime. Create with New, feed with Submit, stop
// with Shutdown.
type Engine struct {
	cfg     Config
	keys    *keyStore
	workers []*worker
	queue   chan *request
	m       metrics

	// jobs is the one stream every worker drains: op batches from the
	// batcher and the nodes of in-flight programs. Its producers — the
	// batcher and each admitted program — are counted in producers, and
	// Shutdown closes jobs once, after the last of them is done. progSlots
	// is the program admission gate, one slot per worker: a program is one
	// admission unit, and admitting more programs than workers would
	// interleave their wavefronts without increasing throughput, so excess
	// submissions fail fast with ErrOverloaded like single ops do.
	jobs      chan job
	producers sync.WaitGroup
	progSlots chan struct{}

	// noise is the guardrail's prediction model; liveWorkers tracks pool
	// members not yet quarantined.
	noise       *fv.NoiseModel
	liveWorkers atomic.Int32

	tmu     sync.RWMutex // guards tenants
	tenants map[string]*tenantCounters

	mu     sync.RWMutex // guards closed vs. admission
	closed bool
	wg     sync.WaitGroup // workers

	expvarBinding *obs.ExpvarBinding // non-nil iff cfg.ExpvarName was published

	// testExecHook, when set, runs at the start of every job a worker takes.
	// Tests use it to hold workers busy deterministically.
	testExecHook func(workerID int)
}

// New builds an engine: one scheduler with its simulated co-processor per
// worker, the admission queue, the batcher, and the worker goroutines. The
// engine is serving when New returns.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		keys:      newKeyStore(),
		queue:     make(chan *request, cfg.QueueDepth),
		jobs:      make(chan job),
		progSlots: make(chan struct{}, cfg.Workers),
		tenants:   make(map[string]*tenantCounters),
		noise:     fv.NewNoiseModel(cfg.Params),
	}
	// guard hangs the robustness attachments on one scheduler. Every
	// co-processor, of either scheme, gets its own integrity seed: no two
	// share check weights, so a systematic fault cannot hide behind a shared
	// blind spot.
	guard := func(s interface {
		EnableIntegrity(seed int64) error
		SetInjector(*faults.Injector)
		SetMetrics(*obs.Registry)
	}, seedOffset int64) error {
		s.SetInjector(cfg.FaultInjector)
		s.SetMetrics(cfg.Registry)
		if !cfg.IntegrityChecks {
			return nil
		}
		return s.EnableIntegrity(cfg.IntegritySeed + seedOffset)
	}
	for i := 0; i < cfg.Workers; i++ {
		hw, err := sched.NewDefault(cfg.Params)
		if err == nil {
			err = guard(hw, int64(i)*1009+1)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: worker %d co-processor: %w", i, err)
		}
		w := newWorker(i, hw, cfg.KeyCacheSlots, fv.NewEvaluator(cfg.Params))
		if cfg.CKKSParams != nil {
			// One seed per worker's chain co-processor, from a range
			// disjoint from the BFV ones.
			ck := sched.NewCKKS(cfg.CKKSParams, hwsim.DefaultTiming())
			if err := guard(ck, int64(i)*2027+501); err != nil {
				return nil, fmt.Errorf("engine: worker %d ckks co-processor: %w", i, err)
			}
			w.ckks = &ckksWorker{
				hw:  ck,
				ev:  ckks.NewEvaluator(cfg.CKKSParams),
				enc: ckks.NewEncoder(cfg.CKKSParams),
			}
		}
		e.workers = append(e.workers, w)
	}
	e.liveWorkers.Store(int32(len(e.workers)))
	e.producers.Add(1)
	go e.dispatch()
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *worker) {
			defer e.wg.Done()
			for j := range e.jobs {
				if e.testExecHook != nil {
					e.testExecHook(w.id)
				}
				j.run(e, w)
				if e.shouldQuarantine(w) {
					return
				}
			}
		}(w)
	}
	if cfg.ExpvarName != "" {
		e.expvarBinding = obs.PublishExpvar(cfg.ExpvarName, func() any { return e.Stats() })
	}
	return e, nil
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return len(e.workers) }

// Tenants returns the namespaces with registered evaluation keys, sorted.
// Servers advertise this so a routing tier can see which tenants a node can
// serve Mul/Rotate for.
func (e *Engine) Tenants() []string { return e.keys.names() }

// tenant returns the per-tenant counter block, creating it on first use.
func (e *Engine) tenant(name string) *tenantCounters {
	e.tmu.RLock()
	c := e.tenants[name]
	e.tmu.RUnlock()
	if c != nil {
		return c
	}
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if c = e.tenants[name]; c == nil {
		c = &tenantCounters{}
		e.tenants[name] = c
	}
	return c
}

// SetRelinKey registers (or replaces) the tenant's relinearization key. The
// key stays in NTT form exactly as generated; workers model the DMA cost of
// streaming it on first use and keep it resident in their caches after.
func (e *Engine) SetRelinKey(tenant string, rk *fv.RelinKey) {
	e.ImportTenantKeys(tenant, &TenantKeySet{Relin: rk})
}

// SetGaloisKey registers the tenant's key-switching key for one Galois
// element.
func (e *Engine) SetGaloisKey(tenant string, gk *fv.GaloisKey) {
	e.ImportTenantKeys(tenant, &TenantKeySet{Galois: []*fv.GaloisKey{gk}})
}

// SetCKKSRelinKey registers the tenant's CKKS relinearization key (all
// level bundles; workers stream and cache it like the FV keys).
func (e *Engine) SetCKKSRelinKey(tenant string, rk *ckks.RelinKey) {
	e.ImportTenantKeys(tenant, &TenantKeySet{CKKSRelin: rk})
}

// SetCKKSGaloisKey registers the tenant's CKKS key-switching key for one
// Galois element.
func (e *Engine) SetCKKSGaloisKey(tenant string, gk *ckks.GaloisKey) {
	e.ImportTenantKeys(tenant, &TenantKeySet{CKKSGalois: []*ckks.GaloisKey{gk}})
}

// ExportTenantKeys snapshots every evaluation key registered for the tenant
// — both schemes — for key-state migration to another node. Returns nil if
// the tenant has no keys here.
func (e *Engine) ExportTenantKeys(tenant string) *TenantKeySet {
	return e.keys.export(tenant)
}

// ImportTenantKeys registers a key set under the tenant — the one place a
// key gets its identity and its DMA size — replacing any keys of the same
// identity and keeping any others already present. The set lands under one
// lock: serving never sees a half-imported tenant. Nil set is a no-op.
func (e *Engine) ImportTenantKeys(tenant string, ks *TenantKeySet) {
	if ks == nil {
		return
	}
	// A CKKS key streams all its level bundles. An engine without CKKSParams
	// can hold such keys (a migration target stores what it is sent) but
	// never streams them.
	ckksBytes := 0
	if p := e.cfg.CKKSParams; p != nil {
		ckksBytes = ckksKeyBytes(p, p.MaxLevel())
	}
	entries := make([]keyEntry, 0, ks.Count())
	if rk := ks.Relin; rk != nil {
		entries = append(entries, keyEntry{relinID(tenant, schemeBFV),
			evalKey{rk, relinKeyBytes(e.cfg.Params, rk)}})
	}
	for _, gk := range ks.Galois {
		entries = append(entries, keyEntry{galoisID(tenant, schemeBFV, gk.G),
			evalKey{gk, galoisKeyBytes(e.cfg.Params, gk)}})
	}
	if rk := ks.CKKSRelin; rk != nil {
		entries = append(entries, keyEntry{relinID(tenant, schemeCKKS), evalKey{rk, ckksBytes}})
	}
	for _, gk := range ks.CKKSGalois {
		entries = append(entries, keyEntry{galoisID(tenant, schemeCKKS, gk.G), evalKey{gk, ckksBytes}})
	}
	e.keys.set(entries...)
}

// Submit admits one operation and blocks until it completes, expires, or
// the context is canceled. A full queue fails fast with ErrOverloaded;
// Submit never blocks on admission.
func (e *Engine) Submit(ctx context.Context, op Op) (*Result, error) {
	if err := validate(op); err != nil {
		return nil, err
	}
	info := op.Kind.info()
	if info.scheme == schemeCKKS && e.cfg.CKKSParams == nil {
		return nil, ErrCKKSUnavailable
	}
	r := &request{op: op, key: batchKey{tenant: op.Tenant, kind: op.Kind}, done: make(chan struct{})}
	if info.key == keyGalois {
		r.key.g = op.G
		if info.scheme == schemeCKKS {
			r.key.g = e.cfg.CKKSParams.GaloisElementForRotation(op.R)
		}
	}
	t, err := e.admit(ctx, op.Tenant, func(t ticket) bool {
		r.ticket = t
		select {
		case e.queue <- r:
			return true
		default:
			return false
		}
	})
	if err != nil {
		return nil, err
	}

	select {
	case <-r.done:
		return r.res, r.err
	case <-t.ctx.Done():
		// The request completes (or is dropped as expired) on its own; the
		// caller just stops waiting.
		return nil, t.ctx.Err()
	}
}

// admit is the one admission Submit and SubmitProgram share. It fixes the
// work's deadline (the earlier of the context's and Config.Deadline),
// charges one unit of the tenant's in-flight quota (ErrQuotaExceeded past
// the cap), and then, under the lock Shutdown takes to close admission,
// refuses with ErrShutdown or runs enter: the work's own non-blocking
// hand-off, false when there is no room (ErrOverloaded). A refused unit gives
// its quota unit back; an admitted one keeps it until it finishes.
func (e *Engine) admit(ctx context.Context, tenant string, enter func(ticket) bool) (ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := ticket{tc: e.tenant(tenant), ctx: ctx, admitted: time.Now()}
	if d, ok := ctx.Deadline(); ok {
		t.deadline = d
	}
	if e.cfg.Deadline > 0 {
		if d := t.admitted.Add(e.cfg.Deadline); t.deadline.IsZero() || d.Before(t.deadline) {
			t.deadline = d
		}
	}
	if n := t.tc.inflight.Add(1); e.cfg.TenantQuota > 0 && n > int64(e.cfg.TenantQuota) {
		t.tc.inflight.Add(-1)
		t.tc.quotaRejected.Add(1)
		e.m.quotaRejected.Add(1)
		return t, ErrQuotaExceeded
	}
	e.mu.RLock()
	closed := e.closed
	entered := !closed && enter(t)
	e.mu.RUnlock()
	if !entered {
		t.tc.inflight.Add(-1)
		if closed {
			return t, ErrShutdown
		}
		e.m.rejected.Add(1)
		return t, ErrOverloaded
	}
	e.m.submitted.Add(1)
	return t, nil
}

// Shutdown stops admission, lets the batcher flush everything already
// queued and every admitted program run out, waits for the workers to
// finish the job stream, and returns. If ctx expires first it returns
// ctx.Err() with workers still draining in the background.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	// Release the expvar name so the next engine under the same name is
	// visible (stale bindings never clobber a newer publisher).
	e.expvarBinding.Unpublish()

	// Admission is closed, so no producer joins from here on: the job
	// stream closes once the batcher has flushed and the last admitted
	// program has returned, and the workers exit when they have drained it.
	drained := make(chan struct{})
	go func() {
		e.producers.Wait()
		close(e.jobs)
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// minNoiseBudgetBits is the guardrail's floor: a program predicted to leave
// less than one bit of budget is refused.
const minNoiseBudgetBits = 1.0

// resubmit re-enqueues a request after a recoverable integrity failure,
// without blocking: the batcher may itself be blocked handing work to the
// pool, and a worker waiting on the queue would deadlock. A full or closed
// queue fails the retry (the caller surfaces the original error).
func (e *Engine) resubmit(r *request) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false
	}
	select {
	case e.queue <- r:
		return true
	default:
		return false
	}
}

// finish completes a request exactly once, releasing its tenant-quota unit.
func (e *Engine) finish(r *request, res *Result, err error) {
	r.tc.inflight.Add(-1)
	r.res, r.err = res, err
	close(r.done)
}

// expire drops a request that ran out of time before execution.
func (e *Engine) expire(r *request) {
	e.m.expired.Add(1)
	e.finish(r, nil, ErrDeadlineExceeded)
}
