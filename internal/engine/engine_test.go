package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/sampler"
)

// tenant bundles one client's key material for tests.
type tenant struct {
	name string
	sk   *fv.SecretKey
	pk   *fv.PublicKey
	rk   *fv.RelinKey
}

func newTenant(t testing.TB, params *fv.Params, name string, seed uint64) *tenant {
	t.Helper()
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(seed))
	sk, pk, rk := kg.GenKeys()
	return &tenant{name: name, sk: sk, pk: pk, rk: rk}
}

func (tn *tenant) encrypt(params *fv.Params, v uint64, seed uint64) *fv.Ciphertext {
	enc := fv.NewEncryptor(params, tn.pk, sampler.NewPRNG(seed))
	pt := fv.NewPlaintext(params)
	pt.Coeffs[0] = v % params.Cfg.T
	return enc.Encrypt(pt)
}

func (tn *tenant) decrypt(params *fv.Params, ct *fv.Ciphertext) uint64 {
	return fv.NewDecryptor(params, tn.sk).Decrypt(ct).Coeffs[0]
}

func testParams(t testing.TB) *fv.Params {
	t.Helper()
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func newEngine(t testing.TB, params *fv.Params, cfg Config) *Engine {
	t.Helper()
	cfg.Params = params
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	return e
}

// TestEngineMulMatchesAccelerator: results served through the queue →
// batcher → worker pool must be bit-for-bit the ones a sequential
// core.Accelerator produces.
func TestEngineMulMatchesAccelerator(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e := newEngine(t, params, Config{Workers: 2, MaxBatch: 4})
	e.SetRelinKey(tn.name, tn.rk)

	ref, err := core.New(params, hwsim.VariantHPS, 1)
	if err != nil {
		t.Fatal(err)
	}

	const ops = 8
	type pair struct{ a, b *fv.Ciphertext }
	var inputs []pair
	for i := 0; i < ops; i++ {
		inputs = append(inputs, pair{
			a: tn.encrypt(params, uint64(i+2), uint64(100+i)),
			b: tn.encrypt(params, uint64(i+5), uint64(200+i)),
		})
	}

	results := make([]*fv.Ciphertext, ops)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: inputs[i].a, B: inputs[i].b})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res.Ct
		}(i)
	}
	wg.Wait()

	for i, in := range inputs {
		if results[i] == nil {
			t.Fatalf("op %d missing result", i)
		}
		want, _, err := ref.Mul(in.a, in.b, tn.rk)
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].Equal(want) {
			t.Fatalf("op %d: engine result differs from sequential accelerator", i)
		}
		got := tn.decrypt(params, results[i])
		exp := uint64((i + 2) * (i + 5) % 257)
		if got != exp {
			t.Fatalf("op %d decrypts to %d, want %d", i, got, exp)
		}
	}

	st := e.Stats()
	if st.Completed != ops {
		t.Fatalf("completed = %d, want %d", st.Completed, ops)
	}
	if st.KeyLoads == 0 {
		t.Fatal("no evaluation-key loads recorded")
	}
}

// TestEngineSaturationRejects: a full admission queue must reject
// immediately with ErrOverloaded — bounded memory under overload, load is
// shed rather than queued. Offered load is 10× the queue depth.
func TestEngineSaturationRejects(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 11)

	const depth = 4
	gate := make(chan struct{})
	e := newEngine(t, params, Config{Workers: 1, QueueDepth: depth, MaxBatch: 1})
	e.SetRelinKey(tn.name, tn.rk)
	var gateOnce sync.Once
	e.testExecHook = func(int) {
		gateOnce.Do(func() { <-gate })
	}

	a := tn.encrypt(params, 3, 1)
	b := tn.encrypt(params, 4, 2)

	// Stall the single worker on its first batch, then saturate.
	firstDone := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
		firstDone <- err
	}()
	waitFor(t, func() bool { return e.Stats().Submitted >= 1 })
	// The dispatcher may have pulled up to one more request out of the
	// queue and be blocked handing it to the stalled pool, so admit until
	// the queue channel itself is full.
	waitForQueueFull(t, e, tn, params)
	baseRejected := e.Stats().Rejected

	const offered = 10 * depth
	var rejected, admitted int
	done := make(chan error, offered)
	for i := 0; i < offered; i++ {
		go func(i int) {
			_, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
			done <- err
		}(i)
	}
	// Every extra submit must resolve quickly: either rejected outright or
	// (for the few that squeeze into freed slots later) completed.
	timeout := time.After(30 * time.Second)
	resolved := 0
	for resolved < offered {
		select {
		case err := <-done:
			resolved++
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected++
			case err == nil:
				admitted++
			default:
				t.Fatalf("unexpected submit error: %v", err)
			}
			if resolved == offered/2 {
				close(gate) // release the worker midway; the backlog drains
			}
		case <-timeout:
			t.Fatalf("stuck: %d/%d submits resolved", resolved, offered)
		}
	}
	if rejected == 0 {
		t.Fatal("saturated queue never returned ErrOverloaded")
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("stalled op failed: %v", err)
	}

	st := e.Stats()
	if st.QueueLen > depth {
		t.Fatalf("queue grew beyond its bound: %d > %d", st.QueueLen, depth)
	}
	if got := st.Rejected - baseRejected; got != uint64(rejected) {
		t.Fatalf("rejected counter grew by %d, want %d", got, rejected)
	}
	t.Logf("offered %d (plus stalled 1 + prefill): admitted %d, rejected %d", offered, admitted, rejected)
}

// waitForQueueFull keeps submitting until a submit is rejected, proving the
// bounded queue is at capacity (the successful ones will drain later).
func waitForQueueFull(t *testing.T, e *Engine, tn *tenant, params *fv.Params) {
	t.Helper()
	a := tn.encrypt(params, 1, 3)
	b := tn.encrypt(params, 2, 4)
	deadline := time.After(30 * time.Second)
	for {
		errc := make(chan error, 1)
		go func() {
			_, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
			errc <- err
		}()
		select {
		case err := <-errc:
			if errors.Is(err, ErrOverloaded) {
				return
			}
		case <-time.After(10 * time.Millisecond):
			// This submit was admitted and is waiting; keep going.
		case <-deadline:
			t.Fatal("queue never filled")
		}
	}
}

// TestEngineDeadlineDropsBeforeDispatch: a request whose deadline expires
// while it waits behind a stalled worker must be dropped without ever
// executing.
func TestEngineDeadlineDropsBeforeDispatch(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 13)

	gate := make(chan struct{})
	e := newEngine(t, params, Config{Workers: 1, QueueDepth: 8, MaxBatch: 1})
	e.SetRelinKey(tn.name, tn.rk)
	var gateOnce sync.Once
	e.testExecHook = func(int) {
		gateOnce.Do(func() { <-gate })
	}

	a := tn.encrypt(params, 3, 1)
	b := tn.encrypt(params, 4, 2)

	firstDone := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
		firstDone <- err
	}()
	waitFor(t, func() bool { return e.Stats().Submitted >= 1 })

	// This one queues behind the stalled worker with a deadline that will
	// lapse long before the worker frees up.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.Submit(ctx, Op{Kind: OpMul, A: a, B: b})
	if err == nil {
		t.Fatal("expired request was served")
	}
	if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v", err)
	}

	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatalf("stalled op failed: %v", err)
	}
	waitFor(t, func() bool {
		st := e.Stats()
		return st.Expired >= 1 && st.Completed == 1
	})
	if st := e.Stats(); st.Completed != 1 {
		t.Fatalf("expired request executed: completed = %d, want 1", st.Completed)
	}
}

// TestEngineTenantKeyIsolation: concurrent tenants with distinct relin keys
// must never be relinearized with each other's keys, even with a
// single-slot cache forcing constant eviction. A cross-tenant mixup would
// decrypt to garbage.
func TestEngineTenantKeyIsolation(t *testing.T) {
	params := testParams(t)
	alice := newTenant(t, params, "alice", 21)
	bob := newTenant(t, params, "bob", 22)

	e := newEngine(t, params, Config{Workers: 2, MaxBatch: 2, KeyCacheSlots: 1})
	e.SetRelinKey(alice.name, alice.rk)
	e.SetRelinKey(bob.name, bob.rk)

	const perTenant = 6
	var wg sync.WaitGroup
	run := func(tn *tenant, base uint64) {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				x, y := base+uint64(i), base+uint64(i)+3
				a := tn.encrypt(params, x, uint64(1000)+x)
				b := tn.encrypt(params, y, uint64(2000)+y)
				res, err := e.Submit(context.Background(), Op{Kind: OpMul, Tenant: tn.name, A: a, B: b})
				if err != nil {
					t.Errorf("%s op %d: %v", tn.name, i, err)
					return
				}
				if got, want := tn.decrypt(params, res.Ct), x*y%257; got != want {
					t.Errorf("%s op %d: decrypted %d, want %d (key cross-contamination?)", tn.name, i, got, want)
				}
			}(i)
		}
	}
	run(alice, 2)
	run(bob, 40)
	wg.Wait()

	st := e.Stats()
	if st.Completed != 2*perTenant {
		t.Fatalf("completed = %d, want %d", st.Completed, 2*perTenant)
	}
	if st.KeyEvictions == 0 && st.KeyLoads <= 2 {
		t.Logf("warning: cache churn not exercised (loads=%d evictions=%d)", st.KeyLoads, st.KeyEvictions)
	}
}

// TestEngineRotateAndAdd covers the two non-Mul paths end to end, including
// the missing-key error.
func TestEngineRotateAndAdd(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 31)
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(31))
	sk2, _, _ := kg.GenKeys()
	if !sk2.S.Equal(tn.sk.S) {
		t.Fatal("deterministic key regeneration out of sync")
	}
	const g = 3
	gk := kg.GenGaloisKey(sk2, g)

	e := newEngine(t, params, Config{Workers: 1})
	e.SetRelinKey(tn.name, tn.rk)
	e.SetGaloisKey(tn.name, gk)

	a := tn.encrypt(params, 9, 1)
	b := tn.encrypt(params, 13, 2)

	res, err := e.Submit(context.Background(), Op{Kind: OpAdd, A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.decrypt(params, res.Ct); got != 22 {
		t.Fatalf("9+13 = %d through the engine", got)
	}

	if _, err := e.Submit(context.Background(), Op{Kind: OpRotate, A: a, G: g}); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	// Missing Galois key must fail cleanly, not wedge the batch.
	if _, err := e.Submit(context.Background(), Op{Kind: OpRotate, A: a, G: 9}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("rotate without key returned %v, want ErrNoKey", err)
	}
	if _, err := e.Submit(context.Background(), Op{Kind: OpMul, Tenant: "stranger", A: a, B: b}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("mul without key returned %v, want ErrNoKey", err)
	}
}

// TestEngineShutdownDrains: Shutdown must finish everything already
// admitted, then reject new work with ErrShutdown.
func TestEngineShutdownDrains(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 41)
	e, err := New(Config{Params: params, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	e.SetRelinKey(tn.name, tn.rk)

	const ops = 6
	var wg sync.WaitGroup
	errs := make([]error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := tn.encrypt(params, uint64(i+2), uint64(10+i))
			b := tn.encrypt(params, uint64(i+3), uint64(20+i))
			_, errs[i] = e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
		}(i)
	}
	waitFor(t, func() bool { return e.Stats().Submitted >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		// Ops raced admission against shutdown: each either completed or
		// was turned away — never stranded.
		if err != nil && !errors.Is(err, ErrShutdown) {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := e.Submit(context.Background(), Op{Kind: OpAdd, A: tn.encrypt(params, 1, 1), B: tn.encrypt(params, 2, 2)}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown submit returned %v, want ErrShutdown", err)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestEngineBatchingAmortizesKeyLoads: with a gated worker letting the queue
// fill, same-tenant Muls must be grouped, so key loads ≪ ops.
func TestEngineBatchingAmortizesKeyLoads(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 51)

	gate := make(chan struct{})
	e := newEngine(t, params, Config{Workers: 1, QueueDepth: 16, MaxBatch: 8})
	e.SetRelinKey(tn.name, tn.rk)
	var gateOnce sync.Once
	e.testExecHook = func(int) {
		gateOnce.Do(func() { <-gate })
	}

	const ops = 8
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := tn.encrypt(params, uint64(i+2), uint64(10+i))
			b := tn.encrypt(params, uint64(i+3), uint64(20+i))
			if _, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b}); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}(i)
	}
	// Let every op reach the queue behind the stalled worker, then open it.
	waitFor(t, func() bool { return e.Stats().Submitted == ops })
	close(gate)
	wg.Wait()

	st := e.Stats()
	if st.Completed != ops {
		t.Fatalf("completed %d, want %d", st.Completed, ops)
	}
	if st.Batches >= st.Completed {
		t.Fatalf("no batching happened: %d batches for %d ops", st.Batches, st.Completed)
	}
	if st.KeyLoads+st.KeyHits != st.Batches {
		t.Fatalf("key lookups (%d loads + %d hits) != %d batches", st.KeyLoads, st.KeyHits, st.Batches)
	}
	if st.AvgBatch <= 1 {
		t.Fatalf("average batch size %.2f, want > 1", st.AvgBatch)
	}
	if res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: tn.encrypt(params, 2, 300), B: tn.encrypt(params, 3, 301)}); err != nil {
		t.Fatal(err)
	} else if !res.KeyHit {
		t.Fatal("relin key not resident after batch")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExpvarRebindAcrossEngines pins the fix for the expvar registration
// leak: the old "skip if the name is taken" guard silently dropped every
// engine after the first, so tests (and restarted servers) saw stale stats.
// Now a later engine under the same name replaces the earlier binding, and
// Shutdown releases it.
func TestExpvarRebindAcrossEngines(t *testing.T) {
	params := testParams(t)
	const name = "engine-test-expvar"

	e1, err := New(Config{Params: params, Workers: 1, ExpvarName: name})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := obs.ExpvarValue(name).(Stats); !ok || st.Workers != 1 {
		t.Fatalf("first engine not visible under %q: %#v", name, obs.ExpvarValue(name))
	}

	// Second engine under the same name: must replace, not vanish.
	e2, err := New(Config{Params: params, Workers: 2, ExpvarName: name})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := obs.ExpvarValue(name).(Stats); !ok || st.Workers != 2 {
		t.Fatalf("second engine's stats dropped: %#v", obs.ExpvarValue(name))
	}

	// Shutting down the stale first engine must not clobber the live one.
	if err := e1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, ok := obs.ExpvarValue(name).(Stats); !ok || st.Workers != 2 {
		t.Fatalf("stale shutdown clobbered the live binding: %#v", obs.ExpvarValue(name))
	}

	// Shutting down the live engine releases the name.
	if err := e2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := obs.ExpvarValue(name); v != nil {
		t.Fatalf("name still bound after shutdown: %#v", v)
	}
}

// TestStatsIncludesPoolAndBatchAssembly exercises the new observability
// surface end to end: pool accounting rides along in Stats when enabled,
// and dispatched batches record an assembly age.
func TestStatsIncludesPoolAndBatchAssembly(t *testing.T) {
	params := testParams(t)
	params.Pool.EnableMetrics()
	e, err := New(Config{Params: params, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	tn := newTenant(t, params, "", 5)
	e.SetRelinKey("", tn.rk)

	ct := tn.encrypt(params, 3, 9)
	if _, err := e.Submit(context.Background(), Op{Kind: OpMul, A: ct, B: ct}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Pool == nil {
		t.Fatal("Stats.Pool missing with pool metrics enabled")
	}
	if st.Pool.Runs == 0 {
		t.Fatalf("pool recorded no runs through a Mul: %+v", st.Pool)
	}
	if st.BatchAssembly.Count == 0 {
		t.Fatal("no batch assembly observations")
	}
}
