package faults_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fv"
)

// The chaos suites run with the wire path's pools poisoning what is released
// to them, so a buffer or operand reused too early — under drops, garbles,
// failovers and kills — shows up as a wrong answer, not as luck.
func TestMain(m *testing.M) {
	cloud.PoisonReleased = true
	os.Exit(m.Run())
}

// TestPoisonedCKKSOperandsOverFaultedWire runs the CKKS workload twice per
// schedule through a fault proxy in front of one CKKS-serving node, whose
// front-end recycles — and, here, poisons — the operands it materializes.
// Dropped and garbled frames cut connections mid-request and mid-reply, so
// frames are released on every path: after a reply, after a refused frame,
// after a failed write. The contract is the wire suites': an op completes
// with the bit-identical result (after a redial if its connection was cut)
// or fails typed — an operand read after its release, or a recycled one that
// kept a row of an earlier level, would be a wrong answer.
func TestPoisonedCKKSOperandsOverFaultedWire(t *testing.T) {
	fx := ckksFixture(t)
	eng, err := newCKKSChaosEngine(fx, engine.Config{Params: fx.params, CKKSParams: fx.cp, Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := cloud.NewServer(fx.params, eng, nil)
	srv.CKKSParams = fx.cp
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
		<-done
	})

	var totalFired uint64
	var redials int
	for i := 0; i < 6; i++ {
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(17000 + i)))
			inj := faults.New(int64(18000 + i))
			for f := 1 + rng.Intn(2); f > 0; f-- {
				mode := faults.ModeGarble
				if rng.Intn(2) == 0 {
					mode = faults.ModeDrop
				}
				inj.Arm(faults.Spec{Class: faults.ClassFrame, After: uint64(rng.Intn(60)), Mode: mode})
			}
			proxy, err := faults.NewProxy(addr, inj)
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			var cl *cloud.Client
			defer func() {
				if cl != nil {
					cl.Close()
				}
			}()
			// do runs one op, redialing when a fault cut the connection; the
			// armed faults are single-shot, so a retry finds clean wire.
			do := func(op chaosOp) (*ckks.Ciphertext, error) {
				var res *ckks.Ciphertext
				var err error
				for attempt := 0; attempt < 3; attempt++ {
					if cl == nil || cl.Broken() {
						if cl != nil {
							cl.Close()
							redials++
						}
						if cl, err = cloud.Dial(proxy.Addr(), fx.params); err != nil {
							return nil, err
						}
						cl.EnableCKKS(fx.cp)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					switch op.kind {
					case engine.OpCKKSAdd:
						res, _, err = cl.CKKSAddCtx(ctx, fx.cts[op.a], fx.cts[op.b])
					case engine.OpCKKSMul:
						res, _, err = cl.CKKSMulCtx(ctx, fx.cts[op.a], fx.cts[op.b])
					default:
						res, _, err = cl.CKKSRotateCtx(ctx, fx.cts[op.a], 1)
					}
					cancel()
					if err == nil {
						return res, nil
					}
				}
				return nil, err
			}
			for round := 0; round < 2; round++ {
				for k, op := range fx.ops {
					res, err := do(op)
					if err != nil {
						if inj.Stats().TotalFired == 0 {
							t.Fatalf("round %d op %d failed with no fault fired: %v", round, k, err)
						}
						continue
					}
					if !res.Equal(fx.want[k]) {
						t.Fatalf("round %d op %d: SILENT CORRUPTION — ckks result differs from reference", round, k)
					}
				}
			}
			totalFired += inj.Stats().TotalFired
		})
	}
	if totalFired < 4 {
		t.Fatalf("harness too tame: only %d frame faults fired across 6 schedules", totalFired)
	}
	t.Logf("poisoned CKKS operands: %d frame faults fired, %d redials, every completed op bit-identical", totalFired, redials)
}

// TestIntegrityRetryRewritesTheResult: an op whose first attempt trips the
// co-processor's fingerprint check is resubmitted by the engine with the
// destination it carries, and the retry writes that same destination (the
// failed attempt never reached the readback, which follows the scrub).
// Through the engine an op's result is its own destination; over the wire,
// where the node draws destinations from its poisoned pool, the reply is bit
// for bit the clean result. Each op rides exactly one retry.
func TestIntegrityRetryRewritesTheResult(t *testing.T) {
	fx, cfx := fixture(t), ckksFixture(t)
	inj := faults.New(23)
	eng, err := engine.New(engine.Config{
		Params:              fx.params,
		CKKSParams:          cfx.cp,
		Workers:             1,
		IntegrityChecks:     true,
		FaultInjector:       inj,
		MaxIntegrityRetries: 3,
		QuarantineAfter:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRelinKey("", fx.rk)
	eng.SetCKKSRelinKey("", cfx.crk)
	srv := cloud.NewServer(fx.params, eng, nil)
	srv.CKKSParams = cfx.cp
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
		<-done
	})
	cl, err := cloud.Dial(addr, fx.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableCKKS(cfx.cp)

	// retried runs f with a storage fault armed on the next memory-file
	// write and checks that the engine retried it exactly once.
	retried := func(name string, f func()) {
		t.Helper()
		before := eng.Stats().IntegrityRetries
		inj.Arm(faults.Spec{Class: faults.ClassBRAM, After: inj.Stats().Seen[faults.ClassBRAM.String()]})
		f()
		if got := eng.Stats().IntegrityRetries - before; got != 1 {
			t.Fatalf("%s: %d integrity retries, want 1", name, got)
		}
	}
	ctx := context.Background()
	// fx.ops[1] is Mul(cts[0], cts[1]); cfx.ops[0] is CKKS Mul(cts[0], cts[1]).
	bfvWant, ckksWant := fx.want[1], cfx.want[0]
	retried("engine BFV Mul", func() {
		dst := fv.NewCiphertext(fx.params, 2)
		res, err := eng.Submit(ctx, engine.Op{Kind: engine.OpMul, A: fx.cts[0], B: fx.cts[1], Dst: dst})
		if err != nil || res.Ct != dst || !dst.Equal(bfvWant) {
			t.Fatalf("err %v, or the retried result is not the clean one in the op's destination", err)
		}
	})
	retried("engine CKKS Mul", func() {
		dst := cfx.cts[2].Clone()
		res, err := eng.Submit(ctx, engine.Op{Kind: engine.OpCKKSMul, CA: cfx.cts[0], CB: cfx.cts[1], CDst: dst})
		if err != nil || res.CCt != dst || !dst.Equal(ckksWant) {
			t.Fatalf("err %v, or the retried result is not the clean one in the op's destination", err)
		}
	})
	retried("wire BFV Mul", func() {
		got, _, err := cl.Mul(fx.cts[0], fx.cts[1])
		if err != nil || !got.Equal(bfvWant) {
			t.Fatalf("err %v, or the reply after a retry is not the clean result", err)
		}
	})
	retried("wire CKKS Mul", func() {
		got, _, err := cl.CKKSMul(cfx.cts[0], cfx.cts[1])
		if err != nil || !got.Equal(ckksWant) {
			t.Fatalf("err %v, or the reply after a retry is not the clean result", err)
		}
	})
}
