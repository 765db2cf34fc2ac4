// Chaos harness: randomized-but-pinned fault schedules driven through the
// real serving stack, asserting the robustness layer's end-to-end contract —
// a client never receives a silently wrong result. Every schedule runs a real
// encrypt → evaluate → decrypt workload; each operation must either return a
// ciphertext bit-identical to the clean reference path or fail with a typed
// error, and every fired fault must show up in the detection counters.
//
// The schedules are derived from pinned seeds (both the schedule shape and
// the injector payloads), so a failure replays exactly. `make chaos` runs
// this file under the race detector.
package faults_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/sampler"
	"repro/internal/sched"
)

// chaosOp is one workload step: ct[a] op ct[b].
type chaosOp struct {
	kind engine.OpKind
	a, b int
}

// chaosFixture is the expensive shared state: parameters, keys, the input
// ciphertexts, and the reference results from a clean sequential accelerator
// — the "seed path" every faulted run is compared against bit for bit.
type chaosFixture struct {
	params  *fv.Params
	sk      *fv.SecretKey
	rk      *fv.RelinKey
	cts     []*fv.Ciphertext
	ops     []chaosOp
	want    []*fv.Ciphertext
	wantVal []uint64
}

var chaosFx = sync.OnceValues(func() (*chaosFixture, error) {
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		return nil, err
	}
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(99))
	sk, pk, rk := kg.GenKeys()
	fx := &chaosFixture{params: params, sk: sk, rk: rk}

	vals := []uint64{2, 3, 4}
	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(7))
	for _, v := range vals {
		pt := fv.NewPlaintext(params)
		pt.Coeffs[0] = v
		fx.cts = append(fx.cts, enc.Encrypt(pt))
	}
	fx.ops = []chaosOp{
		{engine.OpAdd, 0, 1},
		{engine.OpMul, 0, 1},
		{engine.OpMul, 1, 2},
		{engine.OpAdd, 0, 2},
	}
	ref, err := sched.NewDefault(params)
	if err != nil {
		return nil, err
	}
	dec := fv.NewDecryptor(params, sk)
	for _, op := range fx.ops {
		var (
			ct *fv.Ciphertext
		)
		switch op.kind {
		case engine.OpAdd:
			ct, _, err = ref.Add(fx.cts[op.a], fx.cts[op.b])
		case engine.OpMul:
			ct, _, err = ref.Mul(fx.cts[op.a], fx.cts[op.b], rk)
		}
		if err != nil {
			return nil, err
		}
		fx.want = append(fx.want, ct)
		fx.wantVal = append(fx.wantVal, dec.Decrypt(ct).Coeffs[0])
	}
	return fx, nil
})

func fixture(t *testing.T) *chaosFixture {
	t.Helper()
	fx, err := chaosFx()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// hwDetections sums the co-processor detection counters: every way the
// integrity layer can notice corrupted state or a misbehaving unit.
func hwDetections(reg *obs.Registry) uint64 {
	var total uint64
	for _, name := range []string{
		"hw_integrity_storage_detected",
		"hw_integrity_compute_detected",
		"hw_integrity_stall_detected",
		"hw_integrity_scrub_detected",
		"hw_integrity_flush_detected",
	} {
		total += reg.Counter(name).Value()
	}
	return total
}

// typedFailure reports whether err is one of the contract's allowed refusal
// shapes — anything else on a faulted run would be a bug in the taxonomy.
func typedFailure(err error) bool {
	return errors.Is(err, hwsim.ErrIntegrity) ||
		errors.Is(err, engine.ErrNoiseBudget) ||
		errors.Is(err, engine.ErrOverloaded) ||
		errors.Is(err, engine.ErrDeadlineExceeded)
}

// armEngineSchedule draws 1–3 faults over the hardware classes from the
// schedule's pinned RNG. BRAM and limb share an opportunity stream (one per
// retired instruction), so their After values are kept distinct — two
// storage faults landing on the same instruction would be found by a single
// fingerprint check and break the one-detection-per-fault accounting the
// strict invariant pins.
func armEngineSchedule(rng *rand.Rand, inj *faults.Injector, classes []faults.Class) []faults.Spec {
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(classes))
	used := map[uint64]bool{}
	var specs []faults.Spec
	for _, k := range perm[:min(n, len(perm))] {
		s := faults.Spec{Class: classes[k]}
		switch s.Class {
		case faults.ClassDMA:
			s.After = uint64(rng.Intn(24))
		case faults.ClassRPAU:
			s.After = uint64(rng.Intn(60))
			if rng.Intn(2) == 0 {
				s.Mode = faults.ModeStall
				s.Param = 128 + rng.Intn(1024)
			} else {
				s.Mode = faults.ModeKill
			}
		default: // BRAM, limb: distinct instruction indices
			a := uint64(rng.Intn(60))
			for used[a] {
				a++
			}
			used[a] = true
			s.After = a
		}
		specs = append(specs, s)
	}
	inj.Arm(specs...)
	return specs
}

// runEngineWorkload submits the fixture workload and checks each outcome
// against the contract: bit-identical success or typed failure. It returns
// how many ops failed (with typed errors).
func runEngineWorkload(t *testing.T, fx *chaosFixture, e *engine.Engine, label string) int {
	t.Helper()
	dec := fv.NewDecryptor(fx.params, fx.sk)
	failed := 0
	for k, op := range fx.ops {
		res, err := e.Submit(context.Background(), engine.Op{
			Kind: op.kind, A: fx.cts[op.a], B: fx.cts[op.b],
		})
		if err != nil {
			if !typedFailure(err) {
				t.Fatalf("%s op %d: untyped failure: %v", label, k, err)
			}
			failed++
			continue
		}
		if !res.Ct.Equal(fx.want[k]) {
			t.Fatalf("%s op %d: SILENT CORRUPTION — result differs from reference", label, k)
		}
		if got := dec.Decrypt(res.Ct).Coeffs[0]; got != fx.wantVal[k] {
			t.Fatalf("%s op %d: decrypted %d, want %d", label, k, got, fx.wantVal[k])
		}
	}
	return failed
}

// TestChaosEngine runs 40 pinned-seed schedules over the hardware fault
// classes (BRAM, DMA, RPAU, limb) against a single-worker engine — a
// deterministic opportunity stream — and holds the strict ledger: detections
// ≥ faults fired, per schedule, with zero silent corruptions.
func TestChaosEngine(t *testing.T) {
	fx := fixture(t)
	classes := []faults.Class{faults.ClassBRAM, faults.ClassDMA, faults.ClassRPAU, faults.ClassLimb}
	var totalFired, totalDetected uint64
	var totalFailed int
	for i := 0; i < 40; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			inj := faults.New(int64(5000 + i))
			specs := armEngineSchedule(rng, inj, classes)
			reg := obs.NewRegistry()
			e, err := engine.New(engine.Config{
				Params:              fx.params,
				Workers:             1,
				IntegrityChecks:     true,
				IntegritySeed:       int64(100 + i),
				FaultInjector:       inj,
				Registry:            reg,
				MaxIntegrityRetries: 3,
				QuarantineAfter:     -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := e.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			e.SetRelinKey("", fx.rk)

			failed := runEngineWorkload(t, fx, e, "engine")
			fired := inj.Stats().TotalFired
			detected := hwDetections(reg)
			if detected < fired {
				t.Fatalf("schedule %v: %d faults fired but only %d detections — a fault went unnoticed",
					specs, fired, detected)
			}
			if failed > 0 && fired == 0 {
				t.Fatalf("%d ops failed with no fault fired", failed)
			}
			totalFired += fired
			totalDetected += detected
			totalFailed += failed
		})
	}
	if totalFired < 25 {
		t.Fatalf("harness too tame: only %d faults fired across 40 schedules", totalFired)
	}
	t.Logf("engine chaos: %d faults fired, %d detections, %d ops refused with typed errors",
		totalFired, totalDetected, totalFailed)
}

// TestChaosEngineFaultFree pins the zero-distortion half of the acceptance
// criteria: with the whole robustness layer armed but no fault fired, every
// result is bit-identical to the clean reference path.
func TestChaosEngineFaultFree(t *testing.T) {
	fx := fixture(t)
	for i := 0; i < 8; i++ {
		inj := faults.New(int64(7000 + i)) // constructed but nothing armed
		reg := obs.NewRegistry()
		e, err := engine.New(engine.Config{
			Params:          fx.params,
			Workers:         1 + i%2,
			IntegrityChecks: true,
			IntegritySeed:   int64(300 + i),
			FaultInjector:   inj,
			Registry:        reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetRelinKey("", fx.rk)
		if failed := runEngineWorkload(t, fx, e, fmt.Sprintf("fault-free-%d", i)); failed != 0 {
			t.Fatalf("run %d: %d ops failed on a fault-free schedule", i, failed)
		}
		if d := hwDetections(reg); d != 0 {
			t.Fatalf("run %d: %d spurious detections on clean data", i, d)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
}

// TestChaosEngineConcurrent exercises the shared-injector path under the race
// detector: two workers, concurrent submissions, faults on the classes whose
// detection is in-line with injection (BRAM, limb, RPAU), so the strict
// ledger holds for every interleaving.
func TestChaosEngineConcurrent(t *testing.T) {
	fx := fixture(t)
	classes := []faults.Class{faults.ClassBRAM, faults.ClassRPAU, faults.ClassLimb}
	for i := 0; i < 8; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + i)))
			inj := faults.New(int64(6000 + i))
			armEngineSchedule(rng, inj, classes)
			reg := obs.NewRegistry()
			e, err := engine.New(engine.Config{
				Params:              fx.params,
				Workers:             2,
				IntegrityChecks:     true,
				IntegritySeed:       int64(200 + i),
				FaultInjector:       inj,
				Registry:            reg,
				MaxIntegrityRetries: 3,
				QuarantineAfter:     -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := e.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			e.SetRelinKey("", fx.rk)

			dec := fv.NewDecryptor(fx.params, fx.sk)
			var wg sync.WaitGroup
			// Two concurrent copies of the workload keep both workers busy.
			for copyID := 0; copyID < 2; copyID++ {
				for k, op := range fx.ops {
					wg.Add(1)
					go func(k int, op chaosOp) {
						defer wg.Done()
						res, err := e.Submit(context.Background(), engine.Op{
							Kind: op.kind, A: fx.cts[op.a], B: fx.cts[op.b],
						})
						if err != nil {
							if !typedFailure(err) {
								t.Errorf("op %d: untyped failure: %v", k, err)
							}
							return
						}
						if !res.Ct.Equal(fx.want[k]) {
							t.Errorf("op %d: SILENT CORRUPTION under concurrency", k)
							return
						}
						if got := dec.Decrypt(res.Ct).Coeffs[0]; got != fx.wantVal[k] {
							t.Errorf("op %d: decrypted %d, want %d", k, got, fx.wantVal[k])
						}
					}(k, op)
				}
			}
			wg.Wait()
			if fired, detected := inj.Stats().TotalFired, hwDetections(reg); detected < fired {
				t.Fatalf("%d faults fired, %d detections", fired, detected)
			}
		})
	}
}

// frameBackend is one in-process heserver for the network schedules.
type frameBackend struct {
	addr string
	eng  *engine.Engine
	srv  *cloud.Server
	done chan error
}

// startFrameBackends boots two clean backends sharing the fixture keys.
func startFrameBackends(t *testing.T, fx *chaosFixture) [2]*frameBackend {
	t.Helper()
	var out [2]*frameBackend
	for i := range out {
		eng, err := engine.New(engine.Config{Params: fx.params, Workers: 1, QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRelinKey(cloud.DefaultTenant, fx.rk)
		srv := cloud.NewServer(fx.params, eng, nil)
		srv.NodeID = fmt.Sprintf("chaos-node-%d", i)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := &frameBackend{addr: addr, eng: eng, srv: srv, done: make(chan error, 1)}
		go func() { b.done <- srv.Serve() }()
		out[i] = b
	}
	t.Cleanup(func() {
		for _, b := range out {
			b.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := b.eng.Shutdown(ctx); err != nil {
				t.Errorf("backend shutdown: %v", err)
			}
			cancel()
			<-b.done
		}
	})
	return out
}

// TestChaosFrame runs 16 pinned-seed schedules of dropped and garbled wire
// frames through a faults.Proxy in front of each of two in-process backends,
// with the cluster router on top. The contract: a frame fault is never a
// wrong answer — the hardened decoders or the request-ID echo reject the
// bytes, the router fails over to the replica, and the op completes with the
// bit-identical result (or a typed transport error once budgets are spent).
func TestChaosFrame(t *testing.T) {
	fx := fixture(t)
	backends := startFrameBackends(t, fx)
	dec := fv.NewDecryptor(fx.params, fx.sk)

	var totalFired, totalRetries uint64
	for i := 0; i < 16; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3000 + i)))
			inj := faults.New(int64(9000 + i))
			n := 1 + rng.Intn(2)
			for f := 0; f < n; f++ {
				mode := faults.ModeGarble
				if rng.Intn(2) == 0 {
					mode = faults.ModeDrop
				}
				inj.Arm(faults.Spec{Class: faults.ClassFrame, After: uint64(rng.Intn(16)), Mode: mode})
			}

			// Both backends sit behind fault proxies sharing the injector, so
			// every network path is faultable; the armed faults are
			// single-shot, so a failover retry finds clean wire.
			var proxied [2]*faults.Proxy
			var members []cluster.Backend
			for j, b := range backends {
				p, err := faults.NewProxy(b.addr, inj)
				if err != nil {
					t.Fatal(err)
				}
				proxied[j] = p
				members = append(members, cluster.Backend{ID: fmt.Sprintf("n%d", j), Addr: p.Addr()})
			}
			reg := obs.NewRegistry()
			router, err := cluster.NewRouter(cluster.Config{
				Params:         fx.params,
				Backends:       members,
				Replicas:       2,
				MaxAttempts:    3,
				AttemptTimeout: 5 * time.Second,
				Registry:       reg,
				// Keep probes off the wire during the schedule: the only
				// proxy traffic is the workload itself.
				Health: cluster.HealthConfig{Interval: time.Hour, FailThreshold: 100, Seed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				router.Close()
				for _, p := range proxied {
					p.Close()
				}
			}()

			for k, op := range fx.ops {
				cmd := cloud.CmdAdd
				if op.kind == engine.OpMul {
					cmd = cloud.CmdMul
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				resp, err := router.Do(ctx, &cloud.Request{Cmd: cmd, A: fx.cts[op.a], B: fx.cts[op.b]})
				cancel()
				if err != nil {
					// Retry budget spent against an armed schedule: a typed
					// refusal, acceptable — but only when faults actually flew.
					if inj.Stats().TotalFired == 0 {
						t.Fatalf("op %d failed with no fault fired: %v", k, err)
					}
					continue
				}
				if !resp.Result.Equal(fx.want[k]) {
					t.Fatalf("op %d: SILENT CORRUPTION through the wire", k)
				}
				if got := dec.Decrypt(resp.Result).Coeffs[0]; got != fx.wantVal[k] {
					t.Fatalf("op %d: decrypted %d, want %d", k, got, fx.wantVal[k])
				}
			}
			fired := inj.Stats().TotalFired
			retries := reg.Counter("cluster_retries").Value()
			if fired > 0 && retries == 0 {
				t.Fatalf("%d frame faults fired but the router never failed over", fired)
			}
			totalFired += fired
			totalRetries += retries
		})
	}
	if totalFired < 8 {
		t.Fatalf("frame harness too tame: only %d faults fired across 16 schedules", totalFired)
	}
	t.Logf("frame chaos: %d faults fired, %d router failovers", totalFired, totalRetries)
}

// TestChaosMuxTransport is TestChaosFrame over the multiplexed transport:
// pinned-seed dropped/garbled frames through proxies in front of both
// backends, with the cluster router in Mux mode (one shared window-bounded
// connection per backend). A garbled payload fails only its own request; a
// severed connection breaks the shared client, which the backend pool
// replaces on the next attempt — either way the router's failover delivers
// the bit-identical result or a typed error.
func TestChaosMuxTransport(t *testing.T) {
	fx := fixture(t)
	backends := startFrameBackends(t, fx)
	dec := fv.NewDecryptor(fx.params, fx.sk)

	var totalFired, totalRetries uint64
	for i := 0; i < 12; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(5000 + i)))
			inj := faults.New(int64(13000 + i))
			n := 1 + rng.Intn(2)
			for f := 0; f < n; f++ {
				mode := faults.ModeGarble
				if rng.Intn(2) == 0 {
					mode = faults.ModeDrop
				}
				inj.Arm(faults.Spec{Class: faults.ClassFrame, After: uint64(rng.Intn(16)), Mode: mode})
			}

			var proxied [2]*faults.Proxy
			var members []cluster.Backend
			for j, b := range backends {
				p, err := faults.NewProxy(b.addr, inj)
				if err != nil {
					t.Fatal(err)
				}
				proxied[j] = p
				members = append(members, cluster.Backend{ID: fmt.Sprintf("m%d", j), Addr: p.Addr()})
			}
			reg := obs.NewRegistry()
			router, err := cluster.NewRouter(cluster.Config{
				Params:         fx.params,
				Backends:       members,
				Mux:            true,
				Replicas:       2,
				MaxAttempts:    3,
				AttemptTimeout: 5 * time.Second,
				Registry:       reg,
				Health:         cluster.HealthConfig{Interval: time.Hour, FailThreshold: 100, Seed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				router.Close()
				for _, p := range proxied {
					p.Close()
				}
			}()

			for k, op := range fx.ops {
				cmd := cloud.CmdAdd
				if op.kind == engine.OpMul {
					cmd = cloud.CmdMul
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				resp, err := router.Do(ctx, &cloud.Request{Cmd: cmd, A: fx.cts[op.a], B: fx.cts[op.b]})
				cancel()
				if err != nil {
					if inj.Stats().TotalFired == 0 {
						t.Fatalf("op %d failed with no fault fired: %v", k, err)
					}
					continue
				}
				if !resp.Result.Equal(fx.want[k]) {
					t.Fatalf("op %d: SILENT CORRUPTION through the mux wire", k)
				}
				if got := dec.Decrypt(resp.Result).Coeffs[0]; got != fx.wantVal[k] {
					t.Fatalf("op %d: decrypted %d, want %d", k, got, fx.wantVal[k])
				}
			}
			fired := inj.Stats().TotalFired
			retries := reg.Counter("cluster_retries").Value()
			if fired > 0 && retries == 0 {
				t.Fatalf("%d frame faults fired but the router never failed over", fired)
			}
			totalFired += fired
			totalRetries += retries
		})
	}
	if totalFired < 6 {
		t.Fatalf("mux frame harness too tame: only %d faults fired across 12 schedules", totalFired)
	}
	t.Logf("mux frame chaos: %d faults fired, %d router failovers", totalFired, totalRetries)
}
