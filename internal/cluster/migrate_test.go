package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// startKeylessCluster boots n backends with the relin key registered only
// under the default tenant — every per-tenant namespace starts keyless, so
// key placement is entirely in the tests' hands.
func startKeylessCluster(t *testing.T, n int, tenants []string) *testCluster {
	t.Helper()
	_ = tenants
	return startCluster(t, n, nil)
}

// registerPerCandidateSet installs the shared relin key only on each
// tenant's current candidate-set nodes — NOT full replication — so that a
// membership change genuinely depends on the key-state migration: the new
// owner starts keyless and would fail every Mul if the transfer did not
// happen before the cutover.
func registerPerCandidateSet(t *testing.T, tc *testCluster, r *Router, tenants []string) {
	t.Helper()
	byID := map[string]*testBackend{}
	for _, b := range tc.backends {
		byID[b.id] = b
	}
	for _, tenant := range tenants {
		for _, id := range r.Candidates(tenant) {
			byID[id].eng.SetRelinKey(tenant, tc.rk)
		}
	}
}

// elasticHealth is a quiet probe config: deterministic, slow enough not to
// interfere with migration assertions.
func elasticHealth() HealthConfig {
	return HealthConfig{Interval: 50 * time.Millisecond, Timeout: 500 * time.Millisecond, FailThreshold: 2, Seed: 1}
}

// TestJoinMigratesKeysZeroDrop grows a 3-node fleet to 4 under continuous
// load. The joiner starts with zero evaluation keys; the migration must
// copy the moved tenants' keys over before the flip, so the load sees no
// error and no wrong result at any point, and the joiner ends up serving
// real traffic.
func TestJoinMigratesKeysZeroDrop(t *testing.T) {
	tenants := testTenants(12)
	tc := startKeylessCluster(t, 4, tenants) // node-3 is the spare joiner
	initial := tc.backendList()[:3]
	client, err := NewClient(Config{
		Params:      tc.params,
		Backends:    initial,
		Replicas:    2,
		MaxAttempts: 3,
		Health:      elasticHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	registerPerCandidateSet(t, tc, client.Router(), tenants)

	var (
		mu         sync.Mutex
		okOps      int
		wrong      int
		clientErrs []error
	)
	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for l := 0; l < 3; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				tenant := tenants[i%len(tenants)]
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				prod, _, err := client.Mul(ctx, tenant, a, b)
				cancel()
				mu.Lock()
				if err != nil {
					clientErrs = append(clientErrs, fmt.Errorf("tenant %s: %w", tenant, err))
				} else {
					okOps++
					if got := tc.decrypt(prod); got != 117 {
						wrong++
					}
				}
				mu.Unlock()
			}
		}(l)
	}
	// Let load flow, then join the spare node mid-traffic.
	time.Sleep(50 * time.Millisecond)
	joiner := tc.backends[3]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, err := client.Router().Join(ctx, Backend{ID: joiner.id, Addr: joiner.addr})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if report.Tenants == 0 || report.Keys == 0 {
		t.Fatalf("join migrated tenants=%d keys=%d; expected the joiner to take over tenants with keys", report.Tenants, report.Keys)
	}
	// Keep loading after the flip so the joiner provably serves.
	deadline := time.Now().Add(15 * time.Second)
	for joiner.srv.Served() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never served a request after the cutover")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(clientErrs) != 0 {
		t.Fatalf("%d dropped/failed requests during join (zero-drop violated): %v", len(clientErrs), clientErrs[0])
	}
	if wrong != 0 {
		t.Fatalf("%d wrong homomorphic results during join", wrong)
	}
	if okOps == 0 {
		t.Fatal("no load completed; test is vacuous")
	}
	snap := client.Stats()
	if len(snap.Members) != 4 {
		t.Fatalf("membership %v after join, want 4 nodes", snap.Members)
	}
	if snap.Obs.Counters["cluster_joins"] != 1 {
		t.Fatalf("cluster_joins = %d, want 1", snap.Obs.Counters["cluster_joins"])
	}
	if snap.Obs.Counters["cluster_migrated_keys"] == 0 {
		t.Fatal("no migrated keys counted")
	}
}

// TestLeaveMigratesKeysZeroDrop shrinks a 3-node fleet under load: the
// leaver's tenants move to survivors that did not hold their keys before,
// and nothing fails or corrupts during the cutover.
func TestLeaveMigratesKeysZeroDrop(t *testing.T) {
	tenants := testTenants(12)
	tc := startKeylessCluster(t, 3, tenants)
	client, err := NewClient(Config{
		Params:      tc.params,
		Backends:    tc.backendList(),
		Replicas:    2,
		MaxAttempts: 3,
		Health:      elasticHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	registerPerCandidateSet(t, tc, client.Router(), tenants)

	leaver := tc.backends[1]
	var (
		mu         sync.Mutex
		wrong      int
		okOps      int
		clientErrs []error
	)
	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for l := 0; l < 3; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				tenant := tenants[i%len(tenants)]
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				prod, _, err := client.Mul(ctx, tenant, a, b)
				cancel()
				mu.Lock()
				if err != nil {
					clientErrs = append(clientErrs, fmt.Errorf("tenant %s: %w", tenant, err))
				} else {
					okOps++
					if got := tc.decrypt(prod); got != 117 {
						wrong++
					}
				}
				mu.Unlock()
			}
		}(l)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, err := client.Router().Leave(ctx, leaver.id)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if report.Tenants == 0 {
		t.Fatal("leave moved no tenants; shard split is degenerate")
	}
	// Load continues against the shrunken fleet.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(clientErrs) != 0 {
		t.Fatalf("%d dropped/failed requests during leave (zero-drop violated): %v", len(clientErrs), clientErrs[0])
	}
	if wrong != 0 {
		t.Fatalf("%d wrong homomorphic results during leave", wrong)
	}
	if okOps == 0 {
		t.Fatal("no load completed; test is vacuous")
	}
	snap := client.Stats()
	if len(snap.Members) != 2 {
		t.Fatalf("membership %v after leave, want 2 nodes", snap.Members)
	}
	for _, m := range snap.Members {
		if m == leaver.id {
			t.Fatalf("leaver %s still a ring member", leaver.id)
		}
	}
	if snap.Obs.Counters["cluster_leaves"] != 1 {
		t.Fatalf("cluster_leaves = %d, want 1", snap.Obs.Counters["cluster_leaves"])
	}
	// The leaver is gracefully shut down afterwards, not killed — its
	// engine drains cleanly in the test cleanup.
}

// TestLeaveAndRejoin is the rolling-restart idiom: a node leaves the ring
// (the router forgets it), then joins again; tenants keep being served
// correctly at every step, including ones that moved twice.
func TestLeaveAndRejoin(t *testing.T) {
	tenants := testTenants(8)
	tc := startKeylessCluster(t, 3, tenants)
	client, err := NewClient(Config{
		Params:      tc.params,
		Backends:    tc.backendList(),
		Replicas:    2,
		MaxAttempts: 3,
		Health:      elasticHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	registerPerCandidateSet(t, tc, client.Router(), tenants)

	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	checkAll := func(stage string) {
		t.Helper()
		for _, tenant := range tenants {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			prod, _, err := client.Mul(ctx, tenant, a, b)
			cancel()
			if err != nil {
				t.Fatalf("%s: tenant %s: %v", stage, tenant, err)
			}
			if got := tc.decrypt(prod); got != 117 {
				t.Fatalf("%s: tenant %s: 9*13 = %d", stage, tenant, got)
			}
		}
	}
	checkAll("before leave")

	node := tc.backends[2]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Router().Leave(ctx, node.id); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := len(client.Stats().Members); got != 2 {
		t.Fatalf("membership size %d after leave, want 2", got)
	}
	checkAll("after leave")

	report, err := client.Router().Join(ctx, Backend{ID: node.id, Addr: node.addr})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := len(client.Stats().Members); got != 3 {
		t.Fatalf("membership size %d after rejoin, want 3", got)
	}
	if report.Tenants == 0 {
		t.Fatal("rejoin moved no tenants back")
	}
	checkAll("after rejoin")

	snap := client.Stats()
	if snap.Obs.Counters["cluster_leaves"] != 1 || snap.Obs.Counters["cluster_joins"] != 1 {
		t.Fatalf("leave/join counters = %d/%d, want 1/1",
			snap.Obs.Counters["cluster_leaves"], snap.Obs.Counters["cluster_joins"])
	}
}

// TestLeaveRefusesLastNode: leaving members one by one stops at the last
// one — its Leave is refused with ErrLastNode and the ring, and the router's
// transport to the survivor, are left as they were.
func TestLeaveRefusesLastNode(t *testing.T) {
	tenants := testTenants(4)
	tc := startKeylessCluster(t, 3, tenants)
	router, err := NewRouter(Config{
		Params:   tc.params,
		Backends: tc.backendList(),
		Replicas: 2,
		Health:   elasticHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	registerPerCandidateSet(t, tc, router, tenants)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, b := range tc.backends[1:] {
		if _, err := router.Leave(ctx, b.id); err != nil {
			t.Fatalf("leave %s: %v", b.id, err)
		}
	}
	before := router.ring.Members()
	if _, err := router.Leave(ctx, tc.backends[0].id); !errors.Is(err, ErrLastNode) {
		t.Fatalf("leave of the last member: %v, want ErrLastNode", err)
	}
	if after := router.ring.Members(); !slices.Equal(after, before) {
		t.Fatalf("refused leave changed the ring: %v -> %v", before, after)
	}
	if _, err := router.Leave(ctx, tc.backends[1].id); err == nil {
		t.Fatal("leave of a node outside the ring succeeded")
	}
	if n := router.Stats().Obs.Counters["cluster_leaves"]; n != 2 {
		t.Fatalf("cluster_leaves = %d, want 2", n)
	}
	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	for _, tenant := range tenants {
		resp, err := router.Do(ctx, &cloud.Request{Cmd: cloud.CmdMul, Tenant: tenant, A: a, B: b})
		if err != nil {
			t.Fatalf("tenant %s on the last member: %v", tenant, err)
		}
		if got := tc.decrypt(resp.Result); got != 117 {
			t.Fatalf("tenant %s: 9*13 = %d", tenant, got)
		}
	}
}

// TestRetiredAdminCommandRefused: command byte 12 once carried membership
// changes over the wire. It is now an unknown command at the routing tier,
// refused like every other byte without a row in the command table (0 and
// 13-255 with it): a CodeApp reply, and the session still answers. Sent bare,
// in the retired sequential framing, it gets the connection dropped. Either
// way the ring and its migration counters do not move.
func TestRetiredAdminCommandRefused(t *testing.T) {
	tc := startCluster(t, 3, nil)
	encode := func(req *cloud.Request) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := cloud.WriteRequest(&buf, tc.params, req); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A well-formed key import with its command byte rewritten: byte 12 first.
	unknown := func(cmd int) []byte {
		b := encode(&cloud.Request{Cmd: cloud.CmdKeyImport, ID: 1, Blob: []byte{0x01}})
		b[5] = uint8(cmd) // after the magic (4) and the version (1)
		return b
	}
	// Every byte without a row: 12 first, then 0 and the bytes above it.
	rowless := []int{12, 0}
	for cmd := 13; cmd < 256; cmd++ {
		rowless = append(rowless, cmd)
	}
	ping := encode(&cloud.Request{Cmd: cloud.CmdPing, ID: 2})

	type state struct {
		members  []string
		counters map[string]uint64
	}
	snapshot := func(srv *Server) state {
		st := srv.Router.Stats()
		s := state{members: st.Members, counters: map[string]uint64{}}
		for _, name := range []string{"cluster_joins", "cluster_leaves", "cluster_migrated_tenants",
			"cluster_migrated_keys", "cluster_migration_failures"} {
			s.counters[name] = st.Obs.Counters[name]
		}
		return s
	}
	unchanged := func(srv *Server, before state) {
		t.Helper()
		after := snapshot(srv)
		if !slices.Equal(after.members, before.members) || !maps.Equal(after.counters, before.counters) {
			t.Fatalf("command 12 changed the ring: %+v -> %+v", before, after)
		}
		if len(after.members) != len(tc.backends) {
			t.Fatalf("ring members %v, want all %d backends", after.members, len(tc.backends))
		}
	}

	t.Run("sequential", func(t *testing.T) {
		srv, addr := routedTier(t, tc)
		before := snapshot(srv)
		for _, cmd := range rowless {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(unknown(cmd)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			// A close with request bytes still unread may arrive as a reset
			// rather than EOF; either way nothing is answered.
			n, err := conn.Read(make([]byte, 1))
			conn.Close()
			var ne net.Error
			if n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("read after command %d = (%d, %v), want the connection dropped", cmd, n, err)
			}
		}
		unchanged(srv, before)
	})

	t.Run("mux", func(t *testing.T) {
		srv, addr := routedTier(t, tc)
		before := snapshot(srv)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		if err := cloud.WriteMuxHello(conn, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := cloud.ReadMuxHello(conn); err != nil {
			t.Fatal(err)
		}
		exchange := func(id uint64, payload []byte) *cloud.Response {
			t.Helper()
			if err := cloud.WriteMuxFrame(conn, cloud.MuxFrameRequest, id, payload); err != nil {
				t.Fatal(err)
			}
			f, err := cloud.DecodeMuxFrame(conn, 1<<24)
			if err != nil || f.ID != id {
				t.Fatalf("reply frame: %+v, %v", f, err)
			}
			resp, err := cloud.ReadResponseV(bytes.NewReader(f.Payload), tc.params, cloud.ProtoV2)
			if err != nil {
				t.Fatalf("reply to request %d: %v", id, err)
			}
			return resp
		}
		for _, cmd := range rowless {
			resp := exchange(1, unknown(cmd))
			if resp.Code != cloud.CodeApp || !strings.Contains(resp.Err, fmt.Sprintf("unknown command %d", cmd)) {
				t.Fatalf("command %d answered %+v, want a CodeApp refusal of an unknown command", cmd, resp)
			}
		}
		if resp := exchange(2, ping); resp.Err != "" {
			t.Fatalf("ping after the refusals: %s", resp.Err)
		}
		unchanged(srv, before)
	})
}

// TestCandidatesSkipEjectedBeforeSlicing is the candidate-list contract: a
// tenant whose hash-primary's circuit is open still gets a FULL candidate
// set (Replicas long), drawn from the nodes further along the ring — the
// filter runs before the slice, not after.
func TestCandidatesSkipEjectedBeforeSlicing(t *testing.T) {
	tenants := testTenants(16)
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

	victim := tc.backends[0]
	var victimTenant string
	for _, tenant := range tenants {
		if client.Router().Candidates(tenant)[0] == victim.id {
			victimTenant = tenant
			break
		}
	}
	if victimTenant == "" {
		t.Fatal("victim is primary for no tenant; test is vacuous")
	}
	victim.kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ejected := false
		for _, st := range client.Stats().Backends {
			if st.ID == victim.id && st.State == StateEjected.String() {
				ejected = true
			}
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := client.Router().Candidates(victimTenant)
	if len(got) != 2 {
		t.Fatalf("candidates for tenant with ejected primary = %v, want a full set of 2", got)
	}
	for _, id := range got {
		if id == victim.id {
			t.Fatalf("ejected node %s still in candidate set %v", victim.id, got)
		}
	}
}

// TestWatchMembership drives the file-watch path with an injected loader:
// the router applies joins and leaves as the desired membership changes.
func TestWatchMembership(t *testing.T) {
	tenants := testTenants(6)
	tc := startKeylessCluster(t, 3, tenants) // node-2 is the spare
	router, err := NewRouter(Config{
		Params:   tc.params,
		Backends: tc.backendList()[:2],
		Replicas: 2,
		Health:   elasticHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	registerPerCandidateSet(t, tc, router, tenants)

	var mu sync.Mutex
	want := map[string]string{
		tc.backends[0].id: tc.backends[0].addr,
		tc.backends[1].id: tc.backends[1].addr,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		router.WatchMembership(ctx, func() (map[string]string, error) {
			mu.Lock()
			defer mu.Unlock()
			out := make(map[string]string, len(want))
			for k, v := range want {
				out[k] = v
			}
			return out, nil
		}, 20*time.Millisecond)
	}()

	waitMembers := func(n int) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for router.ring.Size() != n {
			if time.Now().After(deadline) {
				t.Fatalf("membership never reached %d: %v", n, router.ring.Members())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Grow: the watcher should join the spare.
	mu.Lock()
	want[tc.backends[2].id] = tc.backends[2].addr
	mu.Unlock()
	waitMembers(3)
	// Shrink back.
	mu.Lock()
	delete(want, tc.backends[2].id)
	mu.Unlock()
	waitMembers(2)

	// Roll: node-1 keeps its ID and comes back at another address (the
	// spare's server stands in for the restarted process). The watcher
	// retires it at the old address and joins it at the new one.
	moved, oldSrv, newAddr := tc.backends[1].id, tc.backends[1].srv, tc.backends[2].addr
	mu.Lock()
	want[moved] = newAddr
	mu.Unlock()
	deadline := time.Now().Add(15 * time.Second)
	for !router.member(moved) || router.addr(moved) != newAddr {
		if time.Now().After(deadline) {
			t.Fatalf("%s never moved to %s: members %v, addr %q", moved, newAddr, router.ring.Members(), router.addr(moved))
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitMembers(2)
	cancel()
	<-watchDone

	// Every tenant is served, and nothing reaches the old address.
	base := oldSrv.Served()
	a, b := tc.encrypt(t, 9), tc.encrypt(t, 13)
	for _, tenant := range tenants {
		rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
		resp, err := router.Do(rctx, &cloud.Request{Cmd: cloud.CmdMul, Tenant: tenant, A: a, B: b})
		rcancel()
		if err != nil {
			t.Fatalf("tenant %s after the move: %v", tenant, err)
		}
		if got := tc.decrypt(resp.Result); got != 117 {
			t.Fatalf("tenant %s after the move: 9*13 = %d", tenant, got)
		}
	}
	if n := oldSrv.Served() - base; n != 0 {
		t.Fatalf("old address of %s served %d operations after the move", moved, n)
	}
	if n := router.Stats().Obs.Counters["cluster_leaves"]; n != 2 {
		t.Fatalf("cluster_leaves = %d, want 2 (the shrink and the move)", n)
	}
}

// TestMigrateCKKSKeys: a Join and a Leave each move a tenant that holds BFV
// and CKKS relin and Galois keys onto a node that held none of them. After
// the cutover the new owner answers CKKSMul and CKKSRotate through the
// routing tier bit for bit as the old owner did (and a BFV Mul right), and
// the report counts every key moved, the CKKS ones included.
func TestMigrateCKKSKeys(t *testing.T) {
	cs := testCKKS()
	x, y := cs.encrypt(t, 0.5, -0.25, 0.125), cs.encrypt(t, 0.3, 0.2)
	for _, change := range []string{"join", "leave"} {
		t.Run(change, func(t *testing.T) {
			tc := startCKKSCluster(t, 3, nil)
			byID := map[string]*testBackend{}
			for _, b := range tc.backends {
				byID[b.id] = b
			}
			initial, mover := tc.backendList(), tc.backends[2].id // the joiner
			if change == "join" {
				initial = initial[:2]
			} else {
				mover = tc.backends[0].id // the leaver
			}
			router, err := NewRouter(Config{Params: tc.params, Backends: initial, Replicas: 1, Health: elasticHealth()})
			if err != nil {
				t.Fatal(err)
			}
			// A tenant whose one owner the change replaces.
			var tenant, from, to string
			for _, tn := range testTenants(64) {
				from = router.Candidates(tn)[0]
				if change == "join" {
					to = router.scratchRing(mover, "").Lookup(tn, 1)[0]
				} else {
					to = router.scratchRing("", mover).Lookup(tn, 1)[0]
				}
				if from != to && (to == mover || from == mover) {
					tenant = tn
					break
				}
			}
			if tenant == "" {
				t.Fatalf("no tenant moves on this %s", change)
			}
			old, next := byID[from], byID[to]
			old.eng.SetRelinKey(tenant, tc.rk)
			old.eng.SetGaloisKey(tenant, fv.NewKeyGenerator(tc.params, sampler.NewPRNG(5)).GenGaloisKey(tc.sk, 3))
			cs.install(old.eng, tenant)
			if !next.eng.ExportTenantKeys(tenant).Empty() {
				t.Fatalf("the new owner %s holds keys of %q before the %s", to, tenant, change)
			}

			srv := NewServer(tc.params, router, nil)
			srv.CKKSParams = cs.cp
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve() }()
			t.Cleanup(func() {
				srv.Close()
				<-done
				router.Close()
			})
			client, err := cloud.DialTenant(addr, tc.params, tenant)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.EnableCKKS(cs.cp)
			ops := func() []*ckks.Ciphertext {
				t.Helper()
				prod, _, err := client.CKKSMul(x, y)
				if err != nil {
					t.Fatalf("CKKS mul: %v", err)
				}
				rot, _, err := client.CKKSRotate(prod, 1)
				if err != nil {
					t.Fatalf("CKKS rotate: %v", err)
				}
				bprod, _, err := client.Mul(tc.encrypt(t, 6), tc.encrypt(t, 7))
				if err != nil || tc.decrypt(bprod) != 42 {
					t.Fatalf("BFV mul: %v", err)
				}
				return []*ckks.Ciphertext{prod, rot}
			}
			served := old.srv.Served()
			want := ops()
			if old.srv.Served()-served != 3 {
				t.Fatalf("the old owner %s did not serve the tenant before the %s", from, change)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var report *MigrationReport
			if change == "join" {
				report, err = router.Join(ctx, Backend{ID: mover, Addr: byID[mover].addr})
			} else {
				report, err = router.Leave(ctx, mover)
			}
			if err != nil {
				t.Fatalf("%s: %v", change, err)
			}
			wantKeys := 0
			for _, tn := range report.Moved {
				wantKeys += old.eng.ExportTenantKeys(tn).Count()
			}
			moved := next.eng.ExportTenantKeys(tenant)
			if !slices.Contains(report.Moved, tenant) || report.Keys != wantKeys ||
				moved.Count() != 4 || moved.CKKSRelin == nil || len(moved.CKKSGalois) != 1 {
				t.Fatalf("report %+v (want %d keys); %s now holds %d keys of %q", report, wantKeys, to, moved.Count(), tenant)
			}

			served = next.srv.Served()
			for i, got := range ops() {
				if !got.Equal(want[i]) {
					t.Errorf("CKKS result %d from the new owner %s is not the old owner's", i, to)
				}
			}
			if next.srv.Served()-served != 3 {
				t.Fatalf("the new owner %s served %d of the 3 requests after the %s", to, next.srv.Served()-served, change)
			}
		})
	}
}
