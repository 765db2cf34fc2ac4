package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// State is one backend's position in the failure-handling state machine.
type State int32

const (
	// StateHealthy: routable; consecutive probe/request failures below the
	// ejection threshold.
	StateHealthy State = iota
	// StateEjected: the circuit is open. The node is out of the ring walk
	// and receives no traffic; probes continue on an exponentially backed
	// off schedule.
	StateEjected
	// StateHalfOpen: a probe succeeded after ejection. The node is routable
	// again on probation — the next success promotes it to healthy, the
	// next failure re-ejects it with a doubled backoff.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateEjected:
		return "ejected"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// HealthConfig parameterizes the health manager. Zero values select the
// documented defaults.
type HealthConfig struct {
	// Interval is the probe period for routable nodes (default 500ms).
	Interval time.Duration
	// Timeout bounds one probe (default 1s).
	Timeout time.Duration
	// FailThreshold is the consecutive failures — probe or live request —
	// that open the circuit (default 2).
	FailThreshold int
	// BackoffMax caps the probe backoff of an ejected node (default 10s).
	BackoffMax time.Duration
	// Seed makes the jitter deterministic for tests; 0 seeds from the
	// backend IDs.
	Seed int64
}

// probeJitter is the fraction of random spread applied to every probe delay,
// so a fleet of routers does not probe in lockstep.
const probeJitter = 0.2

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	return c
}

// probeFunc checks one backend; nil means alive.
type probeFunc func(ctx context.Context, backend string) error

// backendHealth is one node's state machine. All transitions happen under
// mu; reads for routing go through routable/state.
type backendHealth struct {
	id   string
	stop chan struct{} // closed when this backend leaves the fleet

	// inflight counts live attempts for the stats snapshot, updated
	// lock-free on the request path.
	inflight atomic.Int64

	mu          sync.Mutex
	state       State
	consecFails int
	backoff     time.Duration // current probe delay while ejected
	ejections   uint64
	lastErr     string
	lastChange  time.Time
}

// healthManager runs one probe loop per backend and folds in live-request
// outcomes reported by the router, so a dead node is detected by whichever
// signal arrives first.
type healthManager struct {
	cfg   HealthConfig
	probe probeFunc
	reg   *obs.Registry

	// onChange, when set, is called outside the backend lock after every
	// state transition (the router logs these).
	onChange func(id string, from, to State)

	mu       sync.Mutex
	rng      *rand.Rand
	backends map[string]*backendHealth
	started  bool

	quit chan struct{}
	wg   sync.WaitGroup
}

func newHealthManager(cfg HealthConfig, backends []string, probe probeFunc, reg *obs.Registry, onChange func(id string, from, to State)) *healthManager {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		for _, b := range backends {
			seed ^= int64(hash64(b))
		}
		seed |= 1
	}
	hm := &healthManager{
		cfg:      cfg,
		probe:    probe,
		reg:      reg,
		onChange: onChange,
		rng:      rand.New(rand.NewSource(seed)),
		backends: make(map[string]*backendHealth, len(backends)),
		quit:     make(chan struct{}),
	}
	for _, id := range backends {
		hm.backends[id] = newBackendHealth(id, cfg.Interval)
	}
	return hm
}

func newBackendHealth(id string, interval time.Duration) *backendHealth {
	return &backendHealth{id: id, backoff: interval, lastChange: time.Now(), stop: make(chan struct{})}
}

// start launches the probe loops.
func (hm *healthManager) start() {
	hm.mu.Lock()
	hm.started = true
	backends := make([]*backendHealth, 0, len(hm.backends))
	for _, b := range hm.backends {
		backends = append(backends, b)
	}
	hm.mu.Unlock()
	for _, b := range backends {
		hm.wg.Add(1)
		go hm.run(b)
	}
}

// stop terminates the probe loops and waits for them.
func (hm *healthManager) stop() {
	close(hm.quit)
	hm.wg.Wait()
}

// add registers a backend joining the fleet and, if probing has started,
// launches its probe loop. Idempotent.
func (hm *healthManager) add(id string) {
	hm.mu.Lock()
	if _, ok := hm.backends[id]; ok {
		hm.mu.Unlock()
		return
	}
	b := newBackendHealth(id, hm.cfg.Interval)
	hm.backends[id] = b
	started := hm.started
	hm.mu.Unlock()
	if started {
		hm.wg.Add(1)
		go hm.run(b)
	}
}

// remove forgets a backend and stops its probe loop.
func (hm *healthManager) remove(id string) {
	hm.mu.Lock()
	b := hm.backends[id]
	delete(hm.backends, id)
	hm.mu.Unlock()
	if b != nil {
		close(b.stop)
	}
}

func (hm *healthManager) run(b *backendHealth) {
	defer hm.wg.Done()
	timer := time.NewTimer(hm.delay(b))
	defer timer.Stop()
	for {
		select {
		case <-hm.quit:
			return
		case <-b.stop:
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), hm.cfg.Timeout)
		err := hm.probe(ctx, b.id)
		cancel()
		if err != nil {
			hm.reg.Counter("cluster_probe_fail").Add(1)
			hm.recordFailure(b, err)
		} else {
			hm.reg.Counter("cluster_probe_ok").Add(1)
			hm.recordSuccess(b)
		}
		timer.Reset(hm.delay(b))
	}
}

// delay computes the next probe wait: the base interval while routable, the
// current backoff while ejected, both spread by jitter.
func (hm *healthManager) delay(b *backendHealth) time.Duration {
	b.mu.Lock()
	d := hm.cfg.Interval
	if b.state == StateEjected {
		d = b.backoff
	}
	b.mu.Unlock()
	hm.mu.Lock()
	spread := 1 + probeJitter*(2*hm.rng.Float64()-1)
	hm.mu.Unlock()
	return time.Duration(float64(d) * spread)
}

// ReportSuccess folds a successful live request into the node's state (the
// router calls this so recovery does not wait for the next probe).
func (hm *healthManager) reportSuccess(id string) {
	if b := hm.backend(id); b != nil {
		hm.recordSuccess(b)
	}
}

// ReportFailure folds a failed live request (transport-level — the node is
// unreachable or mid-crash) into the node's state.
func (hm *healthManager) reportFailure(id string, err error) {
	if b := hm.backend(id); b != nil {
		hm.recordFailure(b, err)
	}
}

func (hm *healthManager) backend(id string) *backendHealth {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	return hm.backends[id]
}

func (hm *healthManager) recordSuccess(b *backendHealth) {
	b.mu.Lock()
	from := b.state
	b.consecFails = 0
	b.lastErr = ""
	switch b.state {
	case StateEjected:
		b.state = StateHalfOpen
	case StateHalfOpen:
		b.state = StateHealthy
		b.backoff = hm.cfg.Interval
	}
	to := b.state
	if from != to {
		b.lastChange = time.Now()
	}
	b.mu.Unlock()
	if from != to {
		if to == StateHealthy {
			hm.reg.Counter("cluster_recoveries").Add(1)
		}
		hm.notify(b.id, from, to)
	}
}

func (hm *healthManager) recordFailure(b *backendHealth, err error) {
	b.mu.Lock()
	from := b.state
	b.consecFails++
	if err != nil {
		b.lastErr = err.Error()
	}
	switch b.state {
	case StateHealthy:
		if b.consecFails >= hm.cfg.FailThreshold {
			b.state = StateEjected
			b.ejections++
			b.backoff = hm.cfg.Interval
		}
	case StateHalfOpen:
		// Probation failed: back off twice as long before the next trial.
		b.state = StateEjected
		b.ejections++
		b.backoff = min(2*b.backoff, hm.cfg.BackoffMax)
	case StateEjected:
		b.backoff = min(2*b.backoff, hm.cfg.BackoffMax)
	}
	to := b.state
	if from != to {
		b.lastChange = time.Now()
	}
	b.mu.Unlock()
	if from != to {
		hm.reg.Counter("cluster_ejections").Add(1)
		hm.notify(b.id, from, to)
	}
}

func (hm *healthManager) notify(id string, from, to State) {
	if hm.onChange != nil {
		hm.onChange(id, from, to)
	}
}

// incInflight/decInflight bracket one live attempt on the backend.
func (hm *healthManager) incInflight(id string) {
	if b := hm.backend(id); b != nil {
		b.inflight.Add(1)
	}
}

func (hm *healthManager) decInflight(id string) {
	if b := hm.backend(id); b != nil {
		b.inflight.Add(-1)
	}
}

// routable reports whether the node may receive traffic (healthy or on
// half-open probation).
func (hm *healthManager) routable(id string) bool {
	b := hm.backend(id)
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != StateEjected
}

// BackendStatus is the health slice of a Stats snapshot.
type BackendStatus struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	State       string `json:"state"`
	ConsecFails int    `json:"consec_fails,omitempty"`
	Ejections   uint64 `json:"ejections,omitempty"`
	LastErr     string `json:"last_err,omitempty"`
	Inflight    int64  `json:"inflight,omitempty"`
}

func (hm *healthManager) status(id string) BackendStatus {
	b := hm.backend(id)
	if b == nil {
		return BackendStatus{ID: id, State: "unknown"}
	}
	inflight := b.inflight.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{
		ID:          id,
		State:       b.state.String(),
		ConsecFails: b.consecFails,
		Ejections:   b.ejections,
		LastErr:     b.lastErr,
		Inflight:    inflight,
	}
}
