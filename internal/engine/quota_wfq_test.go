package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fv"
	"repro/internal/obs"
)

// waitTenantInflight polls until the tenant's live admission count reaches
// want, failing the test after a generous deadline.
func waitTenantInflight(t *testing.T, e *Engine, tenant string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := e.Stats().PerTenant[tenant]; ok && st.Inflight >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tenant %q never reached %d in-flight operations", tenant, want)
}

// TestTenantQuotaRejectsExcess: with TenantQuota = 2 and the worker frozen,
// a third concurrent submission from the same tenant must be refused with
// ErrQuotaExceeded immediately (not queued), the refusal must show up in
// both the global and per-tenant counters, and the quota unit must be
// released once the in-flight work completes so the tenant can submit again.
func TestTenantQuotaRejectsExcess(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "quota-tenant", 11)
	e := newEngine(t, params, Config{Workers: 1, MaxBatch: 1, QueueDepth: 16, TenantQuota: 2})
	e.SetRelinKey(tn.name, tn.rk)

	gate := make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(gate) })
	e.testExecHook = func(int) { <-gate }

	a := tn.encrypt(params, 9, 301)
	b := tn.encrypt(params, 13, 302)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Submit(context.Background(), Op{Kind: OpMul, Tenant: tn.name, A: a, B: b})
		}(i)
	}
	waitTenantInflight(t, e, tn.name, 2)

	if _, err := e.Submit(context.Background(), Op{Kind: OpMul, Tenant: tn.name, A: a, B: b}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third submission over quota returned %v, want ErrQuotaExceeded", err)
	}
	st := e.Stats()
	if st.QuotaRejected != 1 {
		t.Fatalf("global QuotaRejected = %d, want 1", st.QuotaRejected)
	}
	if ts := st.PerTenant[tn.name]; ts.QuotaRejected != 1 {
		t.Fatalf("tenant QuotaRejected = %d, want 1", ts.QuotaRejected)
	}

	release.Do(func() { close(gate) })
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted submission %d failed: %v", i, err)
		}
	}

	// The quota units were released on completion: a fresh submission fits.
	res, err := e.Submit(context.Background(), Op{Kind: OpMul, Tenant: tn.name, A: a, B: b})
	if err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
	if got := tn.decrypt(params, res.Ct); got != 9*13%params.Cfg.T {
		t.Fatalf("decrypt = %d, want %d", got, 9*13%params.Cfg.T)
	}
	if ts := e.Stats().PerTenant[tn.name]; ts.Inflight != 0 {
		t.Fatalf("tenant Inflight = %d after drain, want 0", ts.Inflight)
	}
}

// TestWFQLightTenantJumpsFlood exercises the fair emission order: a flooding
// tenant's virtual clock advances with every emitted batch, so a light
// tenant's single op is emitted ahead of the flooder's pending group even
// though that group arrived first. Under plain FIFO the light op would sit
// behind the flood.
//
// Schedule (Workers = 1, MaxBatch = 4):
//
//  1. flood op A1 is emitted alone and the worker is held inside it
//  2. flood op A2 is emitted alone; the batcher blocks handing it to the
//     held worker. The flooder's virtual time is now 2
//  3. flood F1, F2, light L, flood F3, F4 queue in that order behind the
//     blocked batcher
//  4. the worker is released; the batcher drains the queue in one burst and
//     F4 fills the flooder's group: an emission point at which the light
//     group (virtual time 0) must go out ahead of it
//
// Each job records, as it starts, how many ops of each tenant have
// completed, so the order the single worker ran the jobs in is read exactly.
func TestWFQLightTenantJumpsFlood(t *testing.T) {
	params := testParams(t)
	flood := newTenant(t, params, "flood", 21)
	light := newTenant(t, params, "light", 22)
	e := newEngine(t, params, Config{Workers: 1, MaxBatch: 4, QueueDepth: 32})
	e.SetRelinKey(flood.name, flood.rk)
	e.SetRelinKey(light.name, light.rk)

	type completedAt struct{ flood, light uint64 }
	const jobs = 4 // A1, A2, the light group, the full flood group
	starts := make(chan completedAt, jobs)
	gate := make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(gate) })
	e.testExecHook = func(int) {
		st := e.Stats().PerTenant
		starts <- completedAt{st[flood.name].Completed, st[light.name].Completed}
		<-gate
	}

	var wg sync.WaitGroup
	submit := func(tn *tenant, a, b *fv.Ciphertext, want uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Submit(context.Background(), Op{Kind: OpMul, Tenant: tn.name, A: a, B: b})
			if err != nil {
				t.Errorf("%s submit: %v", tn.name, err)
				return
			}
			if got := tn.decrypt(params, res.Ct); got != want {
				t.Errorf("%s decrypt = %d, want %d", tn.name, got, want)
			}
		}()
	}
	fa, fb := flood.encrypt(params, 3, 401), flood.encrypt(params, 5, 402)
	la, lb := light.encrypt(params, 7, 403), light.encrypt(params, 2, 404)

	submit(flood, fa, fb, 15) // A1
	select {
	case <-starts:
	case <-time.After(5 * time.Second):
		t.Fatal("the first flood op never reached the worker")
	}
	submit(flood, fa, fb, 15) // A2
	waitFor(t, func() bool { return e.Stats().Batches == 2 })
	for i, tn := range []*tenant{flood, flood, light, flood, flood} {
		if tn == light {
			submit(light, la, lb, 14)
		} else {
			submit(flood, fa, fb, 15)
		}
		waitFor(t, func() bool { return e.Stats().QueueLen == i+1 })
	}

	release.Do(func() { close(gate) })
	wg.Wait()
	close(starts)
	var order []completedAt
	for s := range starts {
		order = append(order, s)
	}
	// The first record was taken above; A2 started after A1 completed, and
	// the light group must start next, with only A1 and A2 of the flood done.
	want := []completedAt{{1, 0}, {2, 0}, {2, 1}}
	if !slices.Equal(order, want) {
		t.Fatalf("jobs 2-4 started with (flood, light) ops completed %v, want %v: the light group waited behind the flooder's earlier pending group", order, want)
	}
}

// TestKeyCacheEvictionMetricsPerTenant: with a single one-slot worker cache,
// alternating tenants evict each other's resident relinearization key on
// every switch; the evictions must be attributed to the VICTIM tenant in
// Stats().PerTenant and mirrored to the obs registry as
// "keycache_evictions:<tenant>" counters.
func TestKeyCacheEvictionMetricsPerTenant(t *testing.T) {
	params := testParams(t)
	ta := newTenant(t, params, "alpha", 31)
	tb := newTenant(t, params, "beta", 32)
	reg := obs.NewRegistry()
	e := newEngine(t, params, Config{Workers: 1, MaxBatch: 1, KeyCacheSlots: 1, Registry: reg})
	e.SetRelinKey(ta.name, ta.rk)
	e.SetRelinKey(tb.name, tb.rk)

	mul := func(tn *tenant, v1, v2, seed uint64) {
		t.Helper()
		a := tn.encrypt(params, v1, seed)
		b := tn.encrypt(params, v2, seed+1)
		res, err := e.Submit(context.Background(), Op{Kind: OpMul, Tenant: tn.name, A: a, B: b})
		if err != nil {
			t.Fatalf("mul for %q: %v", tn.name, err)
		}
		if got, want := tn.decrypt(params, res.Ct), v1*v2%params.Cfg.T; got != want {
			t.Fatalf("decrypt for %q = %d, want %d", tn.name, got, want)
		}
	}

	mul(ta, 3, 4, 501)  // loads alpha's key (cold, no eviction)
	mul(tb, 5, 6, 503)  // evicts alpha
	mul(ta, 7, 8, 505)  // evicts beta
	mul(tb, 9, 10, 507) // evicts alpha again

	st := e.Stats()
	if st.KeyEvictions != 3 {
		t.Fatalf("global KeyEvictions = %d, want 3", st.KeyEvictions)
	}
	if got := st.PerTenant[ta.name].KeyEvictions; got != 2 {
		t.Fatalf("alpha KeyEvictions = %d, want 2 (victim attribution)", got)
	}
	if got := st.PerTenant[tb.name].KeyEvictions; got != 1 {
		t.Fatalf("beta KeyEvictions = %d, want 1 (victim attribution)", got)
	}
	if got := reg.Counter("keycache_evictions:" + ta.name).Value(); got != 2 {
		t.Fatalf("registry keycache_evictions:alpha = %d, want 2", got)
	}
	if got := reg.Counter("keycache_evictions:" + tb.name).Value(); got != 1 {
		t.Fatalf("registry keycache_evictions:beta = %d, want 1", got)
	}
}
