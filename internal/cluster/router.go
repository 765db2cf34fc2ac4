package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/fv"
	"repro/internal/obs"
)

// Errors returned by the router.
var (
	// ErrNoBackends means no routable replica exists for the tenant — every
	// candidate's circuit is open.
	ErrNoBackends = errors.New("cluster: no routable backend for tenant")
	// ErrAttemptsExhausted wraps the last attempt's error once the retry
	// budget is spent.
	ErrAttemptsExhausted = errors.New("cluster: retry attempts exhausted")
)

// Backend names one heserver node.
type Backend struct {
	ID   string // ring identity; stable across restarts
	Addr string // host:port of the wire protocol
}

// Config parameterizes NewRouter. Zero values select the documented
// defaults.
type Config struct {
	// Params is the FV parameter set shared by every backend. Required.
	Params *fv.Params
	// Backends is the cluster membership. Required, non-empty, unique IDs.
	Backends []Backend
	// Replicas is the length of each tenant's preference list — the
	// failover candidates walked when the primary is down (default 2,
	// clamped to the membership size).
	Replicas int
	// MaxAttempts bounds how many backends one request may try (default:
	// Replicas). Every routed command is idempotent; it is retried only on
	// transport failures or retryable (unavailable) server errors.
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline layered under the caller's
	// context (default 2s).
	AttemptTimeout time.Duration
	// Bench-only: nothing reads it.
	PoolSize int
	// Bench-only: nothing reads it.
	Mux bool
	// Health parameterizes probing and circuit breaking.
	Health HealthConfig
	// Registry receives ring/health/retry counters and per-backend latency
	// histograms (default: a private registry, visible via Stats).
	Registry *obs.Registry
	// Logger, when set, logs backend state transitions.
	Logger *log.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Params == nil {
		return c, errors.New("cluster: Config.Params is required")
	}
	if len(c.Backends) == 0 {
		return c, errors.New("cluster: Config.Backends is required")
	}
	seen := make(map[string]struct{}, len(c.Backends))
	for _, b := range c.Backends {
		if b.ID == "" || b.Addr == "" {
			return c, fmt.Errorf("cluster: backend needs ID and Addr, got %+v", b)
		}
		if _, dup := seen[b.ID]; dup {
			return c, fmt.Errorf("cluster: duplicate backend ID %q", b.ID)
		}
		seen[b.ID] = struct{}{}
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	// Replicas is NOT clamped to the initial membership: the fleet is
	// elastic, and ring lookups clamp to the live size anyway.
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = c.Replicas
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c, nil
}

// Router forwards wire-protocol requests to the backend owning the request's
// tenant, failing over to ring replicas when a node is ejected or an attempt
// fails retryably. It is safe for concurrent use.
type Router struct {
	cfg    Config
	ring   *Ring
	health *healthManager
	reg    *obs.Registry
	logger *log.Logger
	gates  *gateSet

	mu    sync.RWMutex      // guards addrs and pools against membership changes
	addrs map[string]string // backend ID -> address
	pools map[string]*member

	// adminMu serializes membership changes (Join, Leave): migrations
	// mutate shared routing state in stages and must not interleave.
	adminMu sync.Mutex

	// migrateHook, when set, is called at each stage boundary of a
	// membership change (tests kill nodes at pinned stages).
	hookMu      sync.Mutex
	migrateHook func(stage, tenant string)
}

// NewRouter builds the ring over the membership, a session and a health
// probe loop per backend, and starts probing.
func NewRouter(cfg Config) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:    cfg,
		ring:   NewRing(DefaultVirtualNodes),
		addrs:  make(map[string]string, len(cfg.Backends)),
		pools:  make(map[string]*member, len(cfg.Backends)),
		reg:    cfg.Registry,
		logger: cfg.Logger,
		gates:  newGateSet(),
	}
	ids := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		r.ring.Add(b.ID)
		r.addrs[b.ID] = b.Addr
		r.pools[b.ID] = r.newPoolFor(b)
		ids = append(ids, b.ID)
	}
	r.health = newHealthManager(cfg.Health, ids, r.probe, r.reg, r.onStateChange)
	r.health.start()
	return r, nil
}

// newPoolFor builds the session holder for one backend. The router asks for
// the largest window a node grants, so the node's admission queue is the one
// place that refuses overload, never the router's own side of the session.
func (r *Router) newPoolFor(b Backend) *member {
	addr := b.Addr
	return &member{
		muxPool: &muxPool{dial: func(ctx context.Context) (*cloud.Client, error) {
			return cloud.DialContext(ctx, addr, r.cfg.Params, "", cloud.MaxMuxWindow)
		}},
		latency: r.reg.Histogram("cluster_backend_latency:" + b.ID),
	}
}

// pool returns the backend's session holder, nil when the node is unknown.
func (r *Router) pool(id string) *member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pools[id]
}

// addr returns the backend's dial address, "" when the node is unknown.
func (r *Router) addr(id string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.addrs[id]
}

// Close stops the health probes and drops every backend session.
func (r *Router) Close() error {
	r.health.stop()
	r.mu.Lock()
	pools := r.pools
	r.pools = make(map[string]*member)
	r.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return nil
}

func (r *Router) onStateChange(id string, from, to State) {
	if r.logger != nil {
		r.logger.Printf("cluster: backend %s %s -> %s", id, from, to)
	}
}

// probe is the health check: one Ping over the backend's session.
func (r *Router) probe(ctx context.Context, id string) error {
	p := r.pool(id)
	if p == nil {
		return fmt.Errorf("cluster: unknown backend %s", id)
	}
	cl, err := p.get(ctx)
	if err != nil {
		return err
	}
	return cl.PingCtx(ctx)
}

// Candidates returns the tenant's routable preference list, Replicas long
// when enough healthy nodes exist: the full ring walk is filtered through
// the circuit breakers BEFORE slicing, so a tenant whose hash-primary is
// ejected still gets a full candidate set instead of a truncated one. With
// every node ejected it degrades to the unfiltered list so callers can
// still attempt (and count) the failures.
func (r *Router) Candidates(tenant string) []string {
	c, _, _ := r.candidatesFor(tenant)
	return c
}

// candidatesFor computes Candidates and additionally reports whether the
// hash-primary was displaced by health filtering (the caller counts these
// as reroutes) and whether any routable node exists at all.
func (r *Router) candidatesFor(tenant string) (list []string, rerouted, routable bool) {
	full := r.ring.Lookup(tenant, 0) // entire preference order
	if len(full) == 0 {
		return nil, false, false
	}
	n := r.cfg.Replicas
	if n > len(full) {
		n = len(full)
	}
	list = make([]string, 0, n)
	for _, node := range full {
		if r.health.routable(node) {
			list = append(list, node)
			if len(list) >= n {
				break
			}
		}
	}
	if len(list) == 0 {
		// Every node is ejected: hand back the raw prefix so callers can
		// still name the candidates in errors and stats.
		return full[:n], false, false
	}
	return list, list[0] != full[0], true
}

// Do routes one request to the tenant's shard and returns the backend's
// decoded response: encode, Forward, materialize — the in-process caller's
// (cluster.Client's) view of the same walk the wire front-end forwards raw
// frames through.
func (r *Router) Do(ctx context.Context, req *cloud.Request) (*cloud.Response, error) {
	return cloud.ReplyAs[*cloud.Response](cloud.RoundTrip(ctx, r.Forward, r.cfg.Params, req))
}

// DoProgram routes one compiled-program request to the tenant's shard with
// the same failover walk as Do: a whole program is one admission unit, one
// wire exchange, and — being a pure function of its inputs — one idempotent
// retry unit.
func (r *Router) DoProgram(ctx context.Context, req *cloud.Request) (*cloud.ProgramResponse, error) {
	req.Cmd = cloud.CmdProgram
	return cloud.ReplyAs[*cloud.ProgramResponse](cloud.RoundTrip(ctx, r.Forward, r.cfg.Params, req))
}

// Forward routes one framed request to the backend owning its tenant and
// returns that backend's framed reply — neither is unpacked: the frame's
// bytes go out under the client's checksum and the backend connection's own
// request ID, and the reply comes back range-checked for the caller to relay
// or materialize, and to release. This is the failover walk: candidates from the ring, health
// filtering, bounded retries — the same bytes again, on the next replica;
// every command is safe to repeat, and the ops and programs the front-end
// forwards are pure functions of their inputs — after transport errors and
// retryable server errors, immediate return of deterministic ones (a missing
// evaluation key) as the *cloud.ServerError they are.
func (r *Router) Forward(ctx context.Context, f *cloud.Frame) (*cloud.RawReply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tenant := f.Tenant
	r.reg.Counter("cluster_requests").Add(1)
	// Park behind the tenant's gate while a migration is moving its key
	// state; on resume the candidates below reflect the post-flip ring.
	waited, err := r.gates.enter(ctx, tenant)
	if waited {
		r.reg.Counter("cluster_gated_requests").Add(1)
	}
	if err != nil {
		r.reg.Counter("cluster_errors").Add(1)
		return nil, err
	}
	defer r.gates.exit(tenant)
	candidates, rerouted, routable := r.candidatesFor(tenant)
	if len(candidates) == 0 {
		r.reg.Counter("cluster_errors").Add(1)
		return nil, ErrNoBackends
	}
	if !routable {
		r.reg.Counter("cluster_errors").Add(1)
		return nil, fmt.Errorf("%w %q (candidates %v all ejected)", ErrNoBackends, tenant, candidates)
	}
	if rerouted {
		// The tenant's primary is ejected; a replica takes over.
		r.reg.Counter("cluster_reroutes").Add(1)
	}
	var (
		lastErr  error
		attempts int
	)
	for _, node := range candidates {
		if err := ctx.Err(); err != nil {
			r.reg.Counter("cluster_errors").Add(1)
			return nil, err
		}
		if attempts >= r.cfg.MaxAttempts {
			break
		}
		if attempts > 0 {
			r.reg.Counter("cluster_retries").Add(1)
		}
		attempts++
		raw, err := r.tryOn(ctx, node, f)
		if err == nil {
			return raw, nil
		}
		lastErr = err
		var se *cloud.ServerError
		if errors.As(err, &se) {
			if !se.Retryable() {
				// Deterministic application error: every replica would fail
				// the same way.
				r.reg.Counter("cluster_errors").Add(1)
				return nil, err
			}
			if se.Code == cloud.CodeIntegrity {
				// The backend caught corrupted co-processor state; the next
				// replica recomputes from the pristine operands.
				r.reg.Counter("cluster_integrity_reroutes").Add(1)
			}
		}
	}
	r.reg.Counter("cluster_errors").Add(1)
	if lastErr == nil {
		return nil, fmt.Errorf("%w %q (candidates %v all ejected)", ErrNoBackends, tenant, candidates)
	}
	return nil, fmt.Errorf("%w after %d attempt(s): %w", ErrAttemptsExhausted, attempts, lastErr)
}

// tryOn runs one attempt against one backend under the per-attempt deadline,
// reporting the outcome to the health manager. An error reply is returned as
// the *cloud.ServerError it carries; a reply out of range is a hop failure.
func (r *Router) tryOn(ctx context.Context, node string, f *cloud.Frame) (*cloud.RawReply, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	p := r.pool(node)
	if p == nil {
		err := fmt.Errorf("cluster: unknown backend %s", node)
		r.health.reportFailure(node, err)
		return nil, err
	}
	cl, err := p.get(actx)
	if err != nil {
		r.health.reportFailure(node, err)
		return nil, fmt.Errorf("cluster: dial %s: %w", node, err)
	}
	r.health.incInflight(node)
	start := time.Now()
	raw, err := cl.Exchange(actx, f)
	elapsed := time.Since(start)
	r.health.decInflight(node)
	p.latency.Observe(elapsed)
	if err == nil {
		if se := raw.ServerError(); se != nil {
			err = se
		} else {
			err = raw.Check()
		}
		if err != nil {
			raw.Release()
		}
	}
	if err != nil {
		var se *cloud.ServerError
		if errors.As(err, &se) || errors.Is(err, cloud.ErrWindowExhausted) {
			// The node answered (or our own window is full — local
			// backpressure, not node failure): it is alive. Only
			// transport-level failures feed the circuit breaker.
			r.health.reportSuccess(node)
			return nil, err
		}
		r.health.reportFailure(node, err)
		return nil, fmt.Errorf("cluster: backend %s: %w", node, err)
	}
	r.health.reportSuccess(node)
	return raw, nil
}

// Ping checks that at least one routable backend answers. It walks the
// membership in sorted order.
func (r *Router) Ping(ctx context.Context) error {
	var lastErr error
	for _, node := range r.ring.Members() {
		if !r.health.routable(node) {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		err := r.probe(actx, node)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	if lastErr == nil {
		return ErrNoBackends
	}
	return lastErr
}

// RouterStats is a point-in-time snapshot of membership, per-backend health,
// and the router's counters and latency histograms.
type RouterStats struct {
	Members  []string        `json:"members"`
	Backends []BackendStatus `json:"backends"`
	Obs      obs.Snapshot    `json:"obs"`
}

// Stats snapshots the router.
func (r *Router) Stats() RouterStats {
	members := r.ring.Members()
	s := RouterStats{Members: members, Obs: r.reg.Snapshot()}
	for _, id := range members {
		st := r.health.status(id)
		st.Addr = r.addr(id)
		s.Backends = append(s.Backends, st)
	}
	return s
}
