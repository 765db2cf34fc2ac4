package hebench

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// The cluster-capacity scenarios: a burst of tenant-sharded Mults routed
// through a real cluster — router, wire protocol, and one single-worker
// engine per node, all in-process — measured as the simulated makespan per
// op (the busiest node's simulated busy cycles over the op count). Nodes are
// independent platforms running concurrently in simulated time, so the
// makespan is the capacity metric, and it is deterministic: the ring
// placement is a pure hash of tenant and node ID, per-op compute cycles come
// from the hardware model, and the key cache is sized so every tenant's key
// loads exactly once per node. That is what lets the tests below pin exact
// cycle counts on any machine.
const (
	fleetTenants = 48 // sharded across the nodes
	fleetOps     = 96 // Mults per burst, round-robin over the tenants
)

// fleet is n in-process nodes behind one cluster client.
type fleet struct {
	engines  []*engine.Engine
	backends []cluster.Backend
	client   *cluster.Client
	tenants  []string
	ctA, ctB *fv.Ciphertext
}

// servingInputs is the fixed small-set workload of the serving scenarios:
// test-size parameters, a seed-derived relin key, and encryptions of 3 and 5.
func servingInputs(t *testing.T) (params *fv.Params, rk *fv.RelinKey, ctA, ctB *fv.Ciphertext) {
	t.Helper()
	params, err := fv.NewParams(fv.TestConfig(65537))
	if err != nil {
		t.Fatal(err)
	}
	_, pk, rk := fv.NewKeyGenerator(params, sampler.NewPRNG(42)).GenKeys()
	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(7))
	pt := fv.NewPlaintext(params)
	pt.Coeffs[0] = 3
	ctA = enc.Encrypt(pt)
	pt.Coeffs[0] = 5
	ctB = enc.Encrypt(pt)
	return params, rk, ctA, ctB
}

func bootFleet(t *testing.T, nodes int) *fleet {
	t.Helper()
	params, rk, ctA, ctB := servingInputs(t)
	f := &fleet{tenants: make([]string, fleetTenants), ctA: ctA, ctB: ctB}
	for i := range f.tenants {
		f.tenants[i] = fmt.Sprintf("tenant-%02d", i)
	}

	for i := 0; i < nodes; i++ {
		eng, err := engine.New(engine.Config{
			Params:     params,
			Workers:    1, // one simulated co-processor per node
			QueueDepth: 4 * fleetOps,
			MaxBatch:   4,
			// Every tenant's key stays resident: key-load cycles are paid
			// exactly once per tenant per node, whatever the arrival order.
			KeyCacheSlots: fleetTenants + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRelinKey(cloud.DefaultTenant, rk)
		for _, tn := range f.tenants {
			eng.SetRelinKey(tn, rk)
		}
		srv := cloud.NewServer(params, eng, nil)
		srv.NodeID = fmt.Sprintf("bench-node-%d", i)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			eng.Shutdown(ctx)
			cancel()
		})
		f.engines = append(f.engines, eng)
		f.backends = append(f.backends, cluster.Backend{ID: srv.NodeID, Addr: addr})
	}

	var err error
	f.client, err = cluster.NewClient(cluster.Config{
		Params:   params,
		Backends: f.backends,
		// Probes are irrelevant for a sub-second burst over healthy nodes.
		Health: cluster.HealthConfig{Interval: time.Minute, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.client.Close() })
	return f
}

// busy returns each node's cumulative simulated busy cycles.
func (f *fleet) busy() []uint64 {
	out := make([]uint64, len(f.engines))
	for i, eng := range f.engines {
		for _, w := range eng.Stats().PerWorker {
			out[i] += w.SimCycles
		}
	}
	return out
}

// makespan runs one burst — a few submitters per node keep every engine's
// queue non-empty without dialing one connection per op — and returns the
// busiest node's busy-cycle delta.
func (f *fleet) makespan(t *testing.T) uint64 {
	t.Helper()
	before := f.busy()
	idx := make(chan int, fleetOps)
	for i := 0; i < fleetOps; i++ {
		idx <- i
	}
	close(idx)
	workers := 4 * len(f.engines)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if _, _, err := f.client.Mul(context.Background(), f.tenants[i%fleetTenants], f.ctA, f.ctB); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	var max uint64
	for i, after := range f.busy() {
		if d := after - before[i]; d > max {
			max = d
		}
	}
	return max
}

// staticPerOp is the makespan per op of one burst on a fleet that never
// changes.
func staticPerOp(t *testing.T, nodes int) uint64 {
	t.Helper()
	return bootFleet(t, nodes).makespan(t) / fleetOps
}

// rollingPerOp boots a 4-node fleet and runs three bursts around a rolling
// restart of the last node: phase A on 4 nodes, the node LEAVES (its
// tenants' evaluation keys migrate to the survivors), phase B on the 3
// survivors, the node REJOINS (keys migrate back), phase C on 4 nodes
// again. Returns the summed phase makespans per op.
func rollingPerOp(t *testing.T) uint64 {
	t.Helper()
	f := bootFleet(t, 4)
	restarted := f.backends[len(f.backends)-1]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	total := f.makespan(t)
	left, err := f.client.Router().Leave(ctx, restarted.ID)
	if err != nil {
		t.Fatalf("leave %s: %v", restarted.ID, err)
	}
	if left.Tenants == 0 || left.Keys == 0 {
		t.Fatalf("leave %s migrated no key state (%+v): scenario is vacuous", restarted.ID, left)
	}
	total += f.makespan(t)
	if _, err := f.client.Router().Join(ctx, restarted); err != nil {
		t.Fatalf("rejoin %s: %v", restarted.ID, err)
	}
	total += f.makespan(t)
	return total / (3 * fleetOps)
}

// TestClusterScaling is the scale-out acceptance gate: at the default tenant
// sharding, two nodes must deliver at least 1.6x the single-node capacity in
// simulated makespan, and four nodes must beat two (the 2-node point is the
// cluster analogue of the paper's Fig. 11 doubling). The metric is fully
// deterministic, so the per-op cycle counts are pinned exactly.
func TestClusterScaling(t *testing.T) {
	want := map[int]uint64{1: 117315, 2: 68434, 4: 34217}
	perOp := map[int]uint64{}
	for _, nodes := range []int{1, 2, 4} {
		perOp[nodes] = staticPerOp(t, nodes)
		if perOp[nodes] != want[nodes] {
			t.Errorf("%d nodes: %d cycles/op, pinned %d", nodes, perOp[nodes], want[nodes])
		}
	}
	speedup2 := float64(perOp[1]) / float64(perOp[2])
	if speedup2 < 1.6 {
		t.Fatalf("2-node speedup %.2fx < 1.6x (1 node %d cycles/op, 2 nodes %d)",
			speedup2, perOp[1], perOp[2])
	}
	if perOp[4] >= perOp[2] {
		t.Fatalf("4 nodes (%d cycles/op) no faster than 2 (%d)", perOp[4], perOp[2])
	}
	t.Logf("cluster speedup: 2 nodes %.2fx, 4 nodes %.2fx",
		speedup2, float64(perOp[1])/float64(perOp[4]))

	// Re-measuring must reproduce the numbers bit-for-bit.
	if again := staticPerOp(t, 2); again != perOp[2] {
		t.Fatalf("2-node rerun moved: %d -> %d cycles/op", perOp[2], again)
	}
}

// TestRollingRestartBench is the elastic-fleet acceptance gate: the 4-node
// fleet absorbing a leave + rejoin (with key-state migration) must at least
// match a static 3-node cluster — paying for the fourth node plus two live
// migrations must never be WORSE than not having the node at all — cannot
// beat the static 4-node fleet, and its simulated makespan is pinned
// exactly. A regression in the migration path (dropped placement minimality,
// cutover serialization leaking into the data path) moves the number.
func TestRollingRestartBench(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four 4-node fleets")
	}
	rolling := rollingPerOp(t)
	if rolling != 37188 {
		t.Errorf("rolling restart: %d cycles/op, pinned 37188", rolling)
	}
	if floor := staticPerOp(t, 3); rolling > floor {
		t.Fatalf("rolling restart fleet ran at %d cycles/op, worse than the %d cycles/op 3-node static floor",
			rolling, floor)
	}
	// The restart window runs one node short, so the fleet cannot reach the
	// static 4-node makespan either — it must land between the two.
	static4 := staticPerOp(t, 4)
	if rolling < static4 {
		t.Fatalf("rolling fleet (%d cycles/op) beat the static 4-node fleet (%d): the restart cost vanished",
			rolling, static4)
	}
	if again := rollingPerOp(t); again != rolling {
		t.Fatalf("rerun moved: %d -> %d cycles/op", rolling, again)
	}
	t.Logf("rolling restart: %d cycles/op (static 4-node %d)", rolling, static4)
}
