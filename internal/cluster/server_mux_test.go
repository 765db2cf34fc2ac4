package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud"
)

// TestClusterServerServesMux: the routing tier's front door is the same one
// the data node has, so a stock cloud.Client pointed at cluster.Server
// gets a session — hello, requests completing out of order on one socket,
// typed window exhaustion — and Shutdown drains it. A migration gate held on
// one tenant parks that tenant's requests inside the router, which makes
// "still in flight" deterministic without timing.
func TestClusterServerServesMux(t *testing.T) {
	const parked, free = "tenant-parked", "tenant-free"
	tc := startCluster(t, 2, []string{parked, free})
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
	served := make(chan error, 1)
	go func() { served <- proxy.Serve() }()

	mc, err := cloud.DialContext(context.Background(), addr, tc.params, "", 2)
	if err != nil {
		t.Fatalf("mux hello against the routing tier: %v", err)
	}
	defer mc.Close()
	if mc.Window() != 2 {
		t.Fatalf("granted window %d, want 2", mc.Window())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if info, err := mc.Info(ctx); err != nil || info.NodeID != "router-under-test" {
		t.Fatalf("info over mux: %+v, %v", info, err)
	}

	// add runs x+y under tenant and reports whether the sum came back right.
	add := func(tenant string, x, y uint64) error {
		resp, err := mc.Do(ctx, &cloud.Request{Cmd: cloud.CmdAdd, Tenant: tenant, A: tc.encrypt(t, x), B: tc.encrypt(t, y)})
		if err != nil {
			return err
		}
		if got := tc.decrypt(resp.Result); got != (x+y)%257 {
			return errors.New("wrong sum through the routing tier")
		}
		return nil
	}
	// arrived waits until the router has admitted n requests — each of them
	// then provably occupies a slot of the client's window.
	arrived := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); router.Stats().Obs.Counters["cluster_requests"] < n; {
			if time.Now().After(deadline) {
				t.Fatalf("router saw %d requests, want %d", router.Stats().Obs.Counters["cluster_requests"], n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	router.gates.hold([]string{parked})
	first := make(chan error, 1)
	go func() { first <- add(parked, 20, 22) }()
	arrived(1)

	// Out of order: the later request completes while the earlier one is
	// still parked on the same session.
	if err := add(free, 3, 4); err != nil {
		t.Fatalf("add behind a parked request: %v", err)
	}
	select {
	case err := <-first:
		t.Fatalf("gated request completed early: %v", err)
	default:
	}

	// Both window slots occupied: the third submission is refused, typed,
	// without touching the wire or the session.
	second := make(chan error, 1)
	go func() { second <- add(parked, 100, 50) }()
	arrived(3)
	if err := add(free, 1, 1); !errors.Is(err, cloud.ErrWindowExhausted) {
		t.Fatalf("submission past the window: %v, want ErrWindowExhausted", err)
	}
	if mc.Broken() {
		t.Fatal("window exhaustion broke the session")
	}

	// Shutdown waits for the two in-flight requests and flushes their
	// replies before the session closes.
	drained := make(chan error, 1)
	go func() { drained <- proxy.Shutdown(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned with requests in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	router.gates.release([]string{parked})
	if err := <-first; err != nil {
		t.Fatalf("first parked add: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second parked add: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := mc.PingCtx(ctx); err == nil {
		t.Fatal("session still answers after Shutdown")
	}
}
