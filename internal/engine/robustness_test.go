package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
)

// TestEngineIntegrityRetryRecovers arms one storage fault: the first
// execution attempt trips the co-processor's fingerprint check, the engine
// re-enqueues the request from its pristine operands, and the retry
// succeeds — the client sees a correct result and never the fault.
func TestEngineIntegrityRetryRecovers(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	inj := faults.New(21)
	inj.Arm(faults.Spec{Class: faults.ClassBRAM, After: 0})
	reg := obs.NewRegistry()
	e := newEngine(t, params, Config{
		Workers:         2,
		IntegrityChecks: true,
		FaultInjector:   inj,
		Registry:        reg,
	})
	e.SetRelinKey(tn.name, tn.rk)

	a := tn.encrypt(params, 6, 301)
	b := tn.encrypt(params, 7, 302)
	res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
	if err != nil {
		t.Fatalf("op not recovered: %v", err)
	}
	if got := tn.decrypt(params, res.Ct); got != 42 {
		t.Fatalf("decrypted %d, want 42", got)
	}
	s := e.Stats()
	if s.IntegrityFaults != 1 || s.IntegrityRetries != 1 {
		t.Fatalf("faults=%d retries=%d, want 1/1", s.IntegrityFaults, s.IntegrityRetries)
	}
	if inj.Stats().TotalFired != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Stats().TotalFired)
	}
	if reg.Counter("hw_integrity_storage_detected").Value() == 0 {
		t.Fatal("hardware detection counter not incremented")
	}
	// The result must match a clean sequential accelerator bit for bit.
	ref, err := core.New(params, hwsim.VariantHPS, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Mul(a, b, tn.rk)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ct.Equal(want) {
		t.Fatal("recovered result differs from clean accelerator")
	}
}

// TestEngineExhaustedRetriesSurfaceTypedError arms more faults than the
// retry budget: the op must fail with an error wrapping hwsim.ErrIntegrity —
// a typed refusal, never a silently wrong ciphertext.
func TestEngineExhaustedRetriesSurfaceTypedError(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	inj := faults.New(22)
	// Enough single-shot faults that the initial attempt and every retry all
	// hit a corrupted operand read.
	specs := make([]faults.Spec, 16)
	for i := range specs {
		specs[i] = faults.Spec{Class: faults.ClassBRAM, After: uint64(i)}
	}
	inj.Arm(specs...)
	e := newEngine(t, params, Config{
		Workers:             1,
		IntegrityChecks:     true,
		FaultInjector:       inj,
		MaxIntegrityRetries: 2,
		QuarantineAfter:     -1, // isolate the retry path from quarantine
	})
	e.SetRelinKey(tn.name, tn.rk)

	a := tn.encrypt(params, 3, 311)
	b := tn.encrypt(params, 4, 312)
	_, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
	if !errors.Is(err, hwsim.ErrIntegrity) {
		t.Fatalf("want error wrapping hwsim.ErrIntegrity, got %v", err)
	}
	s := e.Stats()
	if s.IntegrityRetries != 2 || s.Failed != 1 {
		t.Fatalf("retries=%d failed=%d, want 2/1", s.IntegrityRetries, s.Failed)
	}
}

// TestEngineQuarantineNeverEjectsLastWorker drives repeated integrity
// failures through a two-worker pool with a one-strike quarantine policy:
// exactly one worker is ejected (the CAS floor keeps the last one alive),
// and once the armed faults are spent the surviving worker still serves
// correct results.
func TestEngineQuarantineNeverEjectsLastWorker(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	inj := faults.New(23)
	specs := make([]faults.Spec, 24)
	for i := range specs {
		specs[i] = faults.Spec{Class: faults.ClassBRAM, After: uint64(i)}
	}
	inj.Arm(specs...)
	e := newEngine(t, params, Config{
		Workers:             2,
		IntegrityChecks:     true,
		FaultInjector:       inj,
		MaxIntegrityRetries: 1,
		QuarantineAfter:     1,
	})
	e.SetRelinKey(tn.name, tn.rk)

	a := tn.encrypt(params, 5, 321)
	b := tn.encrypt(params, 8, 322)
	// Burn through the armed faults. Ops fail with typed errors while faults
	// remain; both workers accumulate strikes, but only one may be ejected.
	for inj.Stats().Pending > 0 {
		if _, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b}); err != nil &&
			!errors.Is(err, hwsim.ErrIntegrity) {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
	if err != nil {
		t.Fatalf("surviving worker cannot serve: %v", err)
	}
	if got := tn.decrypt(params, res.Ct); got != 40 {
		t.Fatalf("decrypted %d, want 40", got)
	}
	s := e.Stats()
	if s.Quarantined != 1 {
		t.Fatalf("quarantined %d workers, want exactly 1", s.Quarantined)
	}
	if s.LiveWorkers != 1 {
		t.Fatalf("live workers %d, want 1", s.LiveWorkers)
	}
	ejected := 0
	for _, w := range s.PerWorker {
		if w.Quarantined {
			ejected++
		}
	}
	if ejected != 1 {
		t.Fatalf("per-worker snapshot shows %d ejected, want 1", ejected)
	}
}

// TestEngineNoiseGuard pins the guardrail contract: hinted operations whose
// predicted post-op budget falls below the floor are refused at admission
// with ErrNoiseBudget (deterministic, non-retryable), unhinted and healthy
// operations pass untouched.
func TestEngineNoiseGuard(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e := newEngine(t, params, Config{Workers: 1})
	e.SetRelinKey(tn.name, tn.rk)

	a := tn.encrypt(params, 2, 331)
	b := tn.encrypt(params, 9, 332)

	// A Mul on operands hinted at ~3 bits of budget predicts exhaustion.
	_, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b, BudgetHint: 3})
	if !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("want ErrNoiseBudget, got %v", err)
	}
	// An Add hinted just above the floor is refused too (predicts floor-1).
	_, err = e.Submit(context.Background(), Op{Kind: OpAdd, A: a, B: b, BudgetHint: 1.5})
	if !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("shallow add: want ErrNoiseBudget, got %v", err)
	}
	if s := e.Stats(); s.NoiseRejected != 2 {
		t.Fatalf("noise rejections = %d, want 2", s.NoiseRejected)
	}

	// A fresh-sized hint passes and computes correctly.
	fresh := fv.NewNoiseModel(params).Fresh()
	res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b, BudgetHint: fresh})
	if err != nil {
		t.Fatalf("healthy hinted mul refused: %v", err)
	}
	if got := tn.decrypt(params, res.Ct); got != 18 {
		t.Fatalf("decrypted %d, want 18", got)
	}
	// An unhinted op is never screened — the server cannot measure budget.
	if _, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b}); err != nil {
		t.Fatalf("unhinted mul refused: %v", err)
	}
}
