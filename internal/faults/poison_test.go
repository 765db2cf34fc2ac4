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
