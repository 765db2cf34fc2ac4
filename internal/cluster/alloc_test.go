package cluster

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// The allocation wall of the wire path, beside sched's wall for the hardware
// path: a warm routed Add at the paper set — client, routing tier and data
// node in one process, so every tier's garbage is counted — allocates one
// result ciphertext (the one the client decodes its reply into) and small
// change. Nothing ciphertext-sized is allocated anywhere else: the node
// decodes operands into, and reads the result back into, ciphertexts it
// recycles, and the routing tier only forwards bytes — its share, the
// difference to the same client talking to the node directly, is
// bookkeeping.
const (
	routedSlack = 128 << 10
	routerShare = 16 << 10
)

// poolsDrop reports whether a sync.Pool loses items between a Put and the
// next Get on the same processor, which it only does under the race detector.
func poolsDrop() bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

func TestRoutedAddAllocWall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	if poolsDrop() {
		t.Skip("sync.Pool does not retain here (the race detector makes Put drop a quarter of its items): the wall holds for recycled buffers")
	}
	params, err := fv.NewParams(fv.PaperConfig(65537))
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(2019)
	_, pk, _ := fv.NewKeyGenerator(params, prng).GenKeys()
	ct := fv.NewEncryptor(params, pk, prng).Encrypt(fv.NewPlaintext(params))

	eng, err := engine.New(engine.Config{Params: params, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := cloud.NewServer(params, eng, nil)
	nodeAddr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodeDone := make(chan error, 1)
	go func() { nodeDone <- node.Serve() }()
	defer func() {
		node.Close()
		<-nodeDone
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	}()

	// bytesPerAdd is the process-wide allocation per warm Add through a
	// client on addr. As testing.AllocsPerRun does, it runs on one
	// processor — sync.Pool shards by processor, and a goroutine that wakes
	// up on another one misses a warm pool — and it holds the collector off
	// while counting: a cycle empties the pools, and the refill would be
	// charged to whichever handful of operations it happened to land on.
	bytesPerAdd := func(addr string) uint64 {
		t.Helper()
		client, err := cloud.Dial(addr, params)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		add := func() {
			sum, _, err := client.Add(ct, ct)
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Els) != 2 {
				t.Fatalf("sum has %d elements", len(sum.Els))
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < 8; i++ {
			add()
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const calls = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			add()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}

	result := uint64(2 * params.QBasis.K() * params.N() * 8)
	direct := bytesPerAdd(nodeAddr)
	t.Logf("direct: %d bytes/op (one result %d)", direct, result)
	router, err := NewRouter(Config{
		Params:   params,
		Backends: []Backend{{ID: "node", Addr: nodeAddr}},
		// No probe lands inside the measurement.
		Health: HealthConfig{Interval: time.Hour, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewServer(params, router, nil)
	addr, err := tier.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tier.Serve() }()
	routed := bytesPerAdd(addr)
	tier.Close()
	<-done
	router.Close()

	t.Logf("routed: %d bytes/op (wall %d, router's share %d)", routed, result+routedSlack, int64(routed)-int64(direct))
	if routed > result+routedSlack {
		t.Errorf("a routed Add allocates %d bytes, over the wall of %d (one result ciphertext + %d)",
			routed, result+routedSlack, routedSlack)
	}
	if routed > direct+routerShare {
		t.Errorf("the routing tier adds %d bytes per Add, over its share of %d", routed-direct, routerShare)
	}
}

// TestProbeAllocWall: the health probe's round trip — router and data node in
// one process, every tier's garbage counted — allocates less than one
// ciphertext. The node answers every ping with one zero ciphertext built
// once, and the prober checks the framed reply's status without
// materializing the ciphertext in it.
func TestProbeAllocWall(t *testing.T) {
	if poolsDrop() {
		t.Skip("sync.Pool does not retain here (the race detector makes Put drop a quarter of its items): the wall holds for recycled buffers")
	}
	params, err := fv.NewParams(fv.TestConfig(65537))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Params: params, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := cloud.NewServer(params, eng, nil)
	nodeAddr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodeDone := make(chan error, 1)
	go func() { nodeDone <- node.Serve() }()
	defer func() {
		node.Close()
		<-nodeDone
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	}()

	ciphertext := uint64(2 * params.QBasis.K() * params.N() * 8)
	router, err := NewRouter(Config{
		Params:   params,
		Backends: []Backend{{ID: "node", Addr: nodeAddr}},
		Health:   HealthConfig{Interval: time.Hour, Seed: 1}, // only this test's probes
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	probe := func() {
		if err := router.probe(context.Background(), "node"); err != nil {
			t.Fatal(err)
		}
	}
	// As in TestRoutedAddAllocWall: one processor, no collection while
	// counting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 8; i++ {
		probe()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		probe()
	}
	runtime.ReadMemStats(&after)

	perProbe := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes per probe (one ciphertext %d)", perProbe, ciphertext)
	if perProbe >= ciphertext {
		t.Errorf("a probe allocates %d bytes, at least one ciphertext (%d)", perProbe, ciphertext)
	}
}
