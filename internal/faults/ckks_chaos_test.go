// CKKS chaos schedules: pinned-seed limb corruption and RPAU kill/stall
// faults through the approximate-arithmetic lane of the engine. Every CKKS
// Mul carries a trailing Rescale (and the keyswitch ModDown before it), so
// these schedules land faults in exactly the instruction window the BFV
// suite cannot reach — the Rescale unit, and the chain co-processor whose
// level register moves with every operation. The contract is the same strict ledger: every fired fault
// is detected, and every op either returns a ciphertext bit-identical to
// the clean reference run or fails with a typed error. Approximate
// arithmetic is exact as a computation on residues, so "bit-identical" is
// still the right bar — a single flipped limb that survived to a decode
// would be a silent corruption even if the float error looked small.
package faults_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/obs"
	"repro/internal/sampler"
)

// ckksChaosFixture holds the dual-scheme parameters, keys, inputs, and the
// clean-path reference results every faulted run is compared against.
type ckksChaosFixture struct {
	params *fv.Params
	cp     *ckks.Params
	csk    *ckks.SecretKey
	crk    *ckks.RelinKey
	cgk    *ckks.GaloisKey
	cts    []*ckks.Ciphertext
	ops    []chaosOp
	want   []*ckks.Ciphertext
}

var ckksChaosFx = sync.OnceValues(func() (*ckksChaosFixture, error) {
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		return nil, err
	}
	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		return nil, err
	}
	prng := sampler.NewPRNG(31)
	kg := ckks.NewKeyGenerator(cp, prng)
	sk, pk, rk := kg.GenKeys()
	fx := &ckksChaosFixture{
		params: params, cp: cp, csk: sk, crk: rk,
		cgk: kg.GenGaloisKey(sk, cp.GaloisElementForRotation(1)),
	}

	enc := ckks.NewEncoder(cp)
	encr := ckks.NewEncryptor(cp, pk, prng)
	for v := 0; v < 3; v++ {
		vals := make([]float64, cp.Slots())
		for i := range vals {
			vals[i] = float64((v*13+i*7)%21)/10.0 - 1.0
		}
		pt, err := enc.Encode(vals, cp.MaxLevel(), cp.DefaultScale())
		if err != nil {
			return nil, err
		}
		fx.cts = append(fx.cts, encr.Encrypt(pt))
	}
	// Mul-heavy workload: each Mul retires a keyswitch ModDown plus the
	// chain Rescale, which is where these schedules aim. The rotate keeps
	// the Galois keyswitch path in the blast radius too.
	fx.ops = []chaosOp{
		{engine.OpCKKSMul, 0, 1},
		{engine.OpCKKSMul, 1, 2},
		{engine.OpCKKSAdd, 0, 2},
		{engine.OpCKKSRotate, 0, 0},
		{engine.OpCKKSMul, 0, 2},
	}
	// Reference results from a clean engine run: the pipeline is
	// deterministic, so any fault-free run reproduces these bit for bit.
	ref, err := newCKKSChaosEngine(fx, engine.Config{Params: params, CKKSParams: cp, Workers: 1})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	}()
	for _, op := range fx.ops {
		res, err := ref.Submit(context.Background(), ckksChaosRequest(fx, op))
		if err != nil {
			return nil, err
		}
		fx.want = append(fx.want, res.CCt)
	}
	return fx, nil
})

// newCKKSChaosEngine builds an engine with the fixture's CKKS keys loaded.
func newCKKSChaosEngine(fx *ckksChaosFixture, cfg engine.Config) (*engine.Engine, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	e.SetCKKSRelinKey("", fx.crk)
	e.SetCKKSGaloisKey("", fx.cgk)
	return e, nil
}

func ckksChaosRequest(fx *ckksChaosFixture, op chaosOp) engine.Op {
	req := engine.Op{Kind: op.kind, CA: fx.cts[op.a]}
	switch op.kind {
	case engine.OpCKKSRotate:
		req.R = 1
	default:
		req.CB = fx.cts[op.b]
	}
	return req
}

func ckksFixture(t *testing.T) *ckksChaosFixture {
	t.Helper()
	fx, err := ckksChaosFx()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestChaosCKKSRescale runs 12 pinned-seed limb-corruption and RPAU
// kill/stall schedules against the CKKS lane — single worker, deterministic
// opportunity stream — and holds the strict ledger: detections ≥ faults
// fired per schedule, zero silent corruptions, zero wrong decodes.
func TestChaosCKKSRescale(t *testing.T) {
	fx := ckksFixture(t)
	classes := []faults.Class{faults.ClassLimb, faults.ClassRPAU}
	dec := ckks.NewDecryptor(fx.cp, fx.csk)
	enc := ckks.NewEncoder(fx.cp)

	var totalFired, totalDetected uint64
	var totalFailed int
	for i := 0; i < 12; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(8000 + i)))
			inj := faults.New(int64(15000 + i))
			specs := armEngineSchedule(rng, inj, classes)
			reg := obs.NewRegistry()
			e, err := newCKKSChaosEngine(fx, engine.Config{
				Params:              fx.params,
				CKKSParams:          fx.cp,
				Workers:             1,
				IntegrityChecks:     true,
				IntegritySeed:       int64(600 + i),
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

			failed := 0
			for k, op := range fx.ops {
				res, err := e.Submit(context.Background(), ckksChaosRequest(fx, op))
				if err != nil {
					if !typedFailure(err) {
						t.Fatalf("op %d: untyped failure: %v", k, err)
					}
					failed++
					continue
				}
				if !res.CCt.Equal(fx.want[k]) {
					t.Fatalf("op %d: SILENT CORRUPTION — ckks result differs from reference", k)
				}
				got := enc.Decode(dec.Decrypt(res.CCt))
				want := enc.Decode(dec.Decrypt(fx.want[k]))
				for s := range got {
					if got[s] != want[s] {
						t.Fatalf("op %d slot %d: decoded %g, reference %g", k, s, got[s], want[s])
					}
				}
			}
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
	if totalFired < 6 {
		t.Fatalf("ckks harness too tame: only %d faults fired across 12 schedules", totalFired)
	}
	t.Logf("ckks chaos: %d faults fired, %d detections, %d ops refused with typed errors",
		totalFired, totalDetected, totalFailed)
}
