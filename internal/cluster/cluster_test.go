package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// testBackend is one in-process heserver: engine + wire server.
type testBackend struct {
	id   string
	addr string
	eng  *engine.Engine
	srv  *cloud.Server
	done chan error

	mu     sync.Mutex
	killed bool
}

// kill simulates a node crash: the listener closes, open connections get
// their read deadlines slammed (handlers die), and the engine drains. New
// dials are refused, which is exactly what the router's circuit breaker
// must detect.
func (b *testBackend) kill() {
	b.mu.Lock()
	if b.killed {
		b.mu.Unlock()
		return
	}
	b.killed = true
	b.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // do not wait for handlers: a crash is not graceful
	b.srv.Shutdown(ctx)
	drain, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	b.eng.Shutdown(drain)
	dcancel()
	<-b.done
}

type testCluster struct {
	params   *fv.Params
	sk       *fv.SecretKey
	pk       *fv.PublicKey
	rk       *fv.RelinKey
	backends []*testBackend
}

// startCluster boots n in-process backends sharing one deterministic key
// set, with the relin key replicated to every backend under every tenant —
// the full-replication model the cluster layer assumes.
func startCluster(t *testing.T, n int, tenants []string) *testCluster {
	return startClusterWith(t, n, tenants, nil)
}

// startCKKSCluster is startCluster with nodes that also serve cs, its keys
// replicated the same way.
func startCKKSCluster(t *testing.T, n int, tenants []string) *testCluster {
	return startClusterWith(t, n, tenants, testCKKS())
}

func startClusterWith(t *testing.T, n int, tenants []string, cs *ckksSet) *testCluster {
	t.Helper()
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(99))
	sk, pk, rk := kg.GenKeys()
	tc := &testCluster{params: params, sk: sk, pk: pk, rk: rk}
	for i := 0; i < n; i++ {
		cfg := engine.Config{Params: params, Workers: 2, QueueDepth: 256}
		if cs != nil {
			cfg.CKKSParams = cs.cp
		}
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tenant := range append([]string{cloud.DefaultTenant}, tenants...) {
			eng.SetRelinKey(tenant, rk)
			if cs != nil {
				cs.install(eng, tenant)
			}
		}
		srv := cloud.NewServer(params, eng, nil)
		if cs != nil {
			srv.CKKSParams = cs.cp
		}
		srv.NodeID = fmt.Sprintf("node-%d", i)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := &testBackend{id: srv.NodeID, addr: addr, eng: eng, srv: srv, done: make(chan error, 1)}
		go func() { b.done <- srv.Serve() }()
		tc.backends = append(tc.backends, b)
	}
	t.Cleanup(func() {
		for _, b := range tc.backends {
			b.mu.Lock()
			killed := b.killed
			b.mu.Unlock()
			if killed {
				continue
			}
			b.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := b.eng.Shutdown(ctx); err != nil {
				t.Errorf("backend %s engine shutdown: %v", b.id, err)
			}
			cancel()
			<-b.done
		}
	})
	return tc
}

func (tc *testCluster) backendList() []Backend {
	out := make([]Backend, 0, len(tc.backends))
	for _, b := range tc.backends {
		out = append(out, Backend{ID: b.id, Addr: b.addr})
	}
	return out
}

func (tc *testCluster) encrypt(t testing.TB, v uint64) *fv.Ciphertext {
	t.Helper()
	enc := fv.NewEncryptor(tc.params, tc.pk, sampler.NewPRNG(v*7+1))
	pt := fv.NewPlaintext(tc.params)
	pt.Coeffs[0] = v % 257
	return enc.Encrypt(pt)
}

func (tc *testCluster) decrypt(ct *fv.Ciphertext) uint64 {
	return fv.NewDecryptor(tc.params, tc.sk).Decrypt(ct).Coeffs[0]
}

func testTenants(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{},               // no params
		{Params: params}, // no backends
		{Params: params, Backends: []Backend{{ID: "a", Addr: "x"}, {ID: "a", Addr: "y"}}}, // dup ID
		{Params: params, Backends: []Backend{{ID: "", Addr: "x"}}},                        // empty ID
	}
	for i, cfg := range cases {
		if _, err := NewRouter(cfg); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}

// TestClusterRoutingAndStickiness: every tenant's requests land on exactly
// one backend (its ring primary) while all nodes are healthy, results
// decrypt correctly, and the shard split actually uses both nodes.
func TestClusterRoutingAndStickiness(t *testing.T) {
	tenants := testTenants(8)
	tc := startCluster(t, 2, tenants)
	client, err := NewClient(Config{
		Params:   tc.params,
		Backends: tc.backendList(),
		Health:   HealthConfig{Interval: 50 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const opsPerTenant = 3
	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tenant := range tenants {
		for i := 0; i < opsPerTenant; i++ {
			prod, hwTime, err := client.Mul(ctx, tenant, a, b)
			if err != nil {
				t.Fatalf("tenant %s: %v", tenant, err)
			}
			if got := tc.decrypt(prod); got != 117 {
				t.Fatalf("tenant %s: 9*13 = %d via cluster", tenant, got)
			}
			if hwTime <= 0 {
				t.Fatalf("tenant %s: no simulated hardware time", tenant)
			}
		}
	}

	// Per-tenant engine stats prove stickiness: each tenant's ops all landed
	// on its ring primary, nowhere else.
	served := map[string]string{} // tenant -> backend id
	usedBackends := map[string]bool{}
	for _, b := range tc.backends {
		for tenant, ts := range b.eng.Stats().PerTenant {
			if prev, dup := served[tenant]; dup {
				t.Fatalf("tenant %s served by both %s and %s while healthy", tenant, prev, b.id)
			}
			if ts.Completed != opsPerTenant {
				t.Fatalf("tenant %s on %s: completed %d, want %d", tenant, b.id, ts.Completed, opsPerTenant)
			}
			if ts.SimCycles == 0 {
				t.Fatalf("tenant %s on %s: no simulated cycles accounted", tenant, b.id)
			}
			served[tenant] = b.id
			usedBackends[b.id] = true
		}
	}
	for _, tenant := range tenants {
		primary := client.Router().Candidates(tenant)[0]
		if served[tenant] != primary {
			t.Fatalf("tenant %s served by %s, ring primary is %s", tenant, served[tenant], primary)
		}
	}
	if len(usedBackends) != 2 {
		t.Fatalf("all 8 tenants hashed onto %d of 2 backends; shard split is degenerate", len(usedBackends))
	}
}

// TestClusterFailoverOnBackendDeath is the failure-injection acceptance
// test: 3 in-process backends under continuous load, one killed mid-load.
// The router must converge (node ejected, its tenants rerouted to ring
// replicas), client-visible errors must stay bounded to the in-flight
// window, and no request may outlive its context deadline.
func TestClusterFailoverOnBackendDeath(t *testing.T) {
	tenants := testTenants(12)
	tc := startCluster(t, 3, tenants)
	client, err := NewClient(Config{
		Params:      tc.params,
		Backends:    tc.backendList(),
		Replicas:    2,
		MaxAttempts: 3,
		Health: HealthConfig{
			Interval:      20 * time.Millisecond,
			Timeout:       250 * time.Millisecond,
			FailThreshold: 2,
			BackoffMax:    200 * time.Millisecond,
			Seed:          1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	victim := tc.backends[1]
	// Tenants whose ring primary is the victim must keep being served after
	// the kill — that is the reroute the test exists to prove.
	victimTenants := map[string]bool{}
	for _, tenant := range tenants {
		if client.Router().Candidates(tenant)[0] == victim.id {
			victimTenants[tenant] = true
		}
	}
	if len(victimTenants) == 0 {
		t.Fatal("victim owns no tenants; failure injection would be vacuous")
	}

	const (
		loaders    = 4
		opDeadline = 3 * time.Second
	)
	var (
		mu            sync.Mutex
		okBefore      int
		okAfter       int
		clientErrs    []error
		rerouteServed = map[string]bool{} // victim tenants served post-kill
		killed        bool
		maxElapsed    time.Duration
		wrongResults  int
	)
	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; ; i += loaders {
				select {
				case <-stop:
					return
				default:
				}
				tenant := tenants[i%len(tenants)]
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				start := time.Now()
				prod, _, err := client.Mul(ctx, tenant, a, b)
				elapsed := time.Since(start)
				cancel()
				mu.Lock()
				if elapsed > maxElapsed {
					maxElapsed = elapsed
				}
				if err != nil {
					clientErrs = append(clientErrs, fmt.Errorf("tenant %s: %w", tenant, err))
				} else {
					if got := tc.decrypt(prod); got != 117 {
						wrongResults++
					}
					if killed {
						okAfter++
						if victimTenants[tenant] {
							rerouteServed[tenant] = true
						}
					} else {
						okBefore++
					}
				}
				mu.Unlock()
			}
		}(l)
	}

	// Warm-up: let every loader complete work against the full cluster.
	warmDeadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		warm := okBefore >= loaders*2
		mu.Unlock()
		if warm || time.Now().After(warmDeadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	killed = true
	mu.Unlock()
	victim.kill()

	// Convergence: the victim must be ejected and every one of its tenants
	// served by a replica, while load continues. Requests served before the
	// ejection got there by retry, not reroute, so also wait for one routed
	// around the open breaker — the counter the final assertions check.
	convergeDeadline := time.Now().Add(15 * time.Second)
	for {
		ejected := false
		snap := client.Stats()
		for _, st := range snap.Backends {
			if st.ID == victim.id && st.State == StateEjected.String() {
				ejected = true
			}
		}
		mu.Lock()
		rerouted := len(rerouteServed) == len(victimTenants) && snap.Obs.Counters["cluster_reroutes"] > 0
		mu.Unlock()
		if ejected && rerouted {
			break
		}
		if time.Now().After(convergeDeadline) {
			mu.Lock()
			got, want, errs := len(rerouteServed), len(victimTenants), len(clientErrs)
			mu.Unlock()
			close(stop)
			wg.Wait()
			t.Fatalf("no convergence: ejected=%v rerouted=%d/%d errs=%d", ejected, got, want, errs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if wrongResults != 0 {
		t.Fatalf("%d wrong homomorphic results during failover", wrongResults)
	}
	if okBefore == 0 || okAfter == 0 {
		t.Fatalf("load pattern broken: ok before kill %d, after %d", okBefore, okAfter)
	}
	// Bounded error window: only requests in flight at the instant of the
	// crash may surface an error (one per loader at most); the retry layer
	// must absorb everything else.
	if len(clientErrs) > loaders {
		t.Fatalf("%d client-visible errors, want <= %d (the in-flight window): %v",
			len(clientErrs), loaders, clientErrs)
	}
	// No hangs: nothing may outlive its deadline (plus scheduler slack).
	if limit := opDeadline + 2*time.Second; maxElapsed > limit {
		t.Fatalf("a request took %v, deadline was %v", maxElapsed, opDeadline)
	}

	snap := client.Stats()
	for _, st := range snap.Backends {
		if st.ID == victim.id {
			if st.Ejections == 0 {
				t.Fatalf("victim status has no ejections: %+v", st)
			}
		} else if st.State != StateHealthy.String() {
			t.Fatalf("survivor %s in state %s", st.ID, st.State)
		}
	}
	if snap.Obs.Counters["cluster_reroutes"] == 0 {
		t.Fatal("no reroutes counted although the victim's tenants kept being served")
	}
	if snap.Obs.Counters["cluster_ejections"] == 0 {
		t.Fatal("no ejections counted")
	}
}

// TestClusterAllBackendsDown: with every replica's circuit open, requests
// fail fast with ErrNoBackends instead of spinning through dead nodes.
func TestClusterAllBackendsDown(t *testing.T) {
	tc := startCluster(t, 1, nil)
	client, err := NewClient(Config{
		Params:         tc.params,
		Backends:       tc.backendList(),
		AttemptTimeout: 500 * time.Millisecond,
		Health: HealthConfig{
			Interval:      10 * time.Millisecond,
			Timeout:       100 * time.Millisecond,
			FailThreshold: 2,
			Seed:          1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	a, b := tc.encrypt(t, 2), tc.encrypt(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := client.Add(ctx, "x", a, b); err != nil {
		t.Fatalf("healthy cluster refused work: %v", err)
	}

	tc.backends[0].kill()
	deadline := time.Now().Add(10 * time.Second)
	for client.Stats().Backends[0].State != StateEjected.String() {
		if time.Now().After(deadline) {
			t.Fatal("dead backend never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	_, _, err = client.Add(ctx, "x", a, b)
	if err == nil {
		t.Fatal("request succeeded against a fully dead cluster")
	}
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("error %v, want ErrNoBackends", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("fail-fast took %v; the open circuit should answer immediately", e)
	}
	if err := client.Ping(ctx); err == nil {
		t.Fatal("Ping succeeded against a fully dead cluster")
	}
}

// TestClusterProxyServer drives the herouter front-end: a stock cloud.Client
// (with and without a tenant) talks to cluster.Server exactly as it would to
// one heserver, and requests come back routed and correct.
func TestClusterProxyServer(t *testing.T) {
	tenants := testTenants(4)
	tc := startCluster(t, 2, tenants)
	router, err := NewRouter(Config{
		Params:   tc.params,
		Backends: tc.backendList(),
		Health:   HealthConfig{Interval: 50 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	proxy := NewServer(tc.params, router, nil)
	proxy.NodeID = "router-under-test"
	addr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proxy.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := proxy.Shutdown(ctx); err != nil {
			t.Errorf("proxy shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})

	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)

	// A tenant-aware v2 client.
	c2, err := cloud.DialTenant(addr, tc.params, tenants[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("ping through proxy: %v", err)
	}
	prod, hwTime, err := c2.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.decrypt(prod); got != 117 {
		t.Fatalf("9*13 = %d through the proxy", got)
	}
	if hwTime <= 0 {
		t.Fatal("proxy dropped the simulated hardware time")
	}
	info, err := c2.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !info.TenantAware || info.NodeID != "router-under-test" || info.Workers != 2 {
		t.Fatalf("proxy info = %+v", info)
	}
	// A deterministic application error (missing Galois key) passes through
	// as an error response and must not kill the connection.
	if _, _, err := c2.Rotate(a, 3); err == nil {
		t.Fatal("rotate without a galois key should fail")
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("connection broken after routed error response: %v", err)
	}

	// A client that names no tenant rides the default tenant.
	c1, err := cloud.Dial(addr, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	sum, _, err := c1.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.decrypt(sum); got != 22 {
		t.Fatalf("9+13 = %d through the proxy under the default tenant", got)
	}
	if got := proxy.Served(); got < 2 {
		t.Fatalf("proxy served %d ops, want >= 2", got)
	}
	// The routed work really ran on the backends.
	var backendOps uint64
	for _, b := range tc.backends {
		backendOps += b.srv.Served()
	}
	if backendOps < 2 {
		t.Fatalf("backends served %d ops in total, want >= 2", backendOps)
	}
}

// TestClusterMuxTransport: one shared window-bounded session per backend
// carries concurrent exchanges from many tenants, results stay correct and
// tenant-sticky, and killing a node still fails over to its ring replica.
func TestClusterMuxTransport(t *testing.T) {
	tenants := testTenants(6)
	tc := startCluster(t, 2, tenants)
	client, err := NewClient(Config{
		Params:      tc.params,
		Backends:    tc.backendList(),
		Replicas:    2,
		MaxAttempts: 3,
		Health: HealthConfig{
			Interval:      20 * time.Millisecond,
			Timeout:       250 * time.Millisecond,
			FailThreshold: 2,
			Seed:          1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Concurrent multiplications from every tenant at once: the per-backend
	// mux connection interleaves them all on one socket per node.
	var wg sync.WaitGroup
	errs := make([]error, len(tenants)*2)
	for round := 0; round < 2; round++ {
		for ti, tenant := range tenants {
			wg.Add(1)
			go func(i int, tenant string, x, y uint64) {
				defer wg.Done()
				prod, _, err := client.Mul(context.Background(), tenant, tc.encrypt(t, x), tc.encrypt(t, y))
				if err != nil {
					errs[i] = fmt.Errorf("tenant %s: %w", tenant, err)
					return
				}
				if got, want := tc.decrypt(prod), x*y%257; got != want {
					errs[i] = fmt.Errorf("tenant %s: %d*%d = %d, want %d", tenant, x, y, got, want)
				}
			}(round*len(tenants)+ti, tenant, uint64(ti+2), uint64(round+3))
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Both backends worked, and each over exactly one mux session: the
	// concurrent load must not have opened a connection per request.
	for _, b := range tc.backends {
		if b.srv.Served() == 0 {
			t.Fatalf("backend %s served nothing; sharding broke under mux", b.id)
		}
	}

	// Kill one node: its shared mux connection dies, in-flight work fails
	// retryably, and every tenant's next request lands on the surviving
	// replica.
	tc.backends[0].kill()
	for _, tenant := range tenants {
		prod, _, err := client.Mul(context.Background(), tenant, tc.encrypt(t, 5), tc.encrypt(t, 8))
		if err != nil {
			t.Fatalf("tenant %s after node kill: %v", tenant, err)
		}
		if got := tc.decrypt(prod); got != 40 {
			t.Fatalf("tenant %s after node kill: 5*8 = %d", tenant, got)
		}
	}
}
