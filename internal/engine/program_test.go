package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fv"
	"repro/internal/program"
)

// mulChain builds a serial chain of `depth` multiplications over one input
// pair — every mul needs the relin key, so op-at-a-time serving with a cold
// cache would stream it `depth` times.
func mulChain(t *testing.T, depth int) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	acc := b.Mul(x, y)
	for i := 1; i < depth; i++ {
		acc = b.Mul(acc, y)
	}
	b.Output(acc)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wideTree builds a balanced add tree over n inputs — wavefronts of width
// n/2, n/4, ... that a multi-worker pool can fan out.
func wideTree(t *testing.T, n int) *program.Program {
	t.Helper()
	p, err := program.CompileAddTree(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProgramMatchesInterpreter: the scheduled execution must be
// bit-identical to the software reference interpreter — divergence would be
// a scheduling (dependence) bug, not arithmetic.
func TestProgramMatchesInterpreter(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "acme", 7)
	e := newEngine(t, params, Config{Workers: 3})
	e.SetRelinKey(tn.name, tn.rk)

	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	m := b.Mul(x, y)
	s := b.Add(m, x)
	d := b.Sub(s, y)
	one := make([]uint64, params.N())
	one[0] = 1
	b.Output(b.AddPlain(d, b.Plaintext(one)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	ctA := tn.encrypt(params, 3, 11)
	ctB := tn.encrypt(params, 5, 12)
	res, err := e.SubmitProgram(context.Background(), ProgramOp{
		Tenant: tn.name, Prog: p, Inputs: []*fv.Ciphertext{ctA, ctB},
	})
	if err != nil {
		t.Fatalf("SubmitProgram: %v", err)
	}
	want, err := program.Run(params, p, []*fv.Ciphertext{ctA, ctB}, program.Keys{Relin: tn.rk})
	if err != nil {
		t.Fatal(err)
	}
	// (3·5 + 3 − 5 + 1) mod 257 = 14.
	if got := tn.decrypt(params, res.Outputs[0]); got != 14 {
		t.Fatalf("program output decrypts to %d, want 14", got)
	}
	gotPt := fv.NewDecryptor(params, tn.sk).Decrypt(res.Outputs[0])
	wantPt := fv.NewDecryptor(params, tn.sk).Decrypt(want[0])
	for i := range gotPt.Coeffs {
		if gotPt.Coeffs[i] != wantPt.Coeffs[i] {
			t.Fatalf("coefficient %d diverges from the reference interpreter", i)
		}
	}
	if res.Nodes != len(p.Nodes) {
		t.Fatalf("Nodes = %d, want %d", res.Nodes, len(p.Nodes))
	}
}

// TestProgramRelinNodeMatchesInterpreter: a program that multiplies without
// relinearizing and relinearizes as its own node — the software path a
// forged imported key used to crash — is bit-identical to the reference
// interpreter under an honest key taken through the key file the way a
// tenant's upload arrives (so what the body reader insists on is what honest
// keys have).
func TestProgramRelinNodeMatchesInterpreter(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "acme", 7)
	e := newEngine(t, params, Config{Workers: 2})

	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	b.Output(b.Relin(b.MulNoRelin(x, y)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []*fv.Ciphertext{tn.encrypt(params, 3, 11), tn.encrypt(params, 5, 12)}

	var file bytes.Buffer
	if err := fv.WriteRelinKeyV2(&file, params, tn.rk); err != nil {
		t.Fatal(err)
	}
	_, rk, err := fv.ReadRelinKey(&file)
	if err != nil {
		t.Fatalf("honest relin key refused: %v", err)
	}
	e.SetRelinKey(tn.name, rk)
	res, err := e.SubmitProgram(context.Background(), ProgramOp{Tenant: tn.name, Prog: p, Inputs: inputs})
	if err != nil {
		t.Fatalf("SubmitProgram: %v", err)
	}
	want, err := program.Run(params, p, inputs, program.Keys{Relin: tn.rk})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[0].Equal(want[0]) {
		t.Fatal("the relin node diverges from the reference interpreter")
	}
	if got := tn.decrypt(params, res.Outputs[0]); got != 15 {
		t.Fatalf("3·5 decrypts to %d", got)
	}
}

// TestProgramLoadsEachKeyOnce is the acceptance check for the key prologue:
// four Mults — every node needing the relin key — must charge exactly ONE
// key load for the whole program.
func TestProgramLoadsEachKeyOnce(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "acme", 7)
	e := newEngine(t, params, Config{Workers: 2, KeyCacheSlots: 1})
	e.SetRelinKey(tn.name, tn.rk)

	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	for i := 0; i < 4; i++ {
		b.Output(b.Mul(x, y))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SubmitProgram(context.Background(), ProgramOp{
		Tenant: tn.name, Prog: p,
		Inputs: []*fv.Ciphertext{tn.encrypt(params, 1, 21), tn.encrypt(params, 1, 22)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyLoads != 1 {
		t.Fatalf("program streamed the relin key %d times, want 1", res.KeyLoads)
	}
	s := e.Stats()
	if s.KeyLoads != 1 {
		t.Fatalf("Stats.KeyLoads = %d after one program, want 1", s.KeyLoads)
	}
	if ts := s.PerTenant["acme"]; ts.KeyLoads != 1 || ts.Programs != 1 {
		t.Fatalf("tenant stats %+v, want 1 key load and 1 program", ts)
	}
	if res.KeyLoadCycles == 0 {
		t.Fatal("key prologue charged zero cycles")
	}

	// A second program for the same tenant is still a fresh admission unit:
	// it streams its own key (the scheduler does not assume residency across
	// programs) — exactly one more load.
	if _, err := e.SubmitProgram(context.Background(), ProgramOp{
		Tenant: tn.name, Prog: p,
		Inputs: []*fv.Ciphertext{tn.encrypt(params, 1, 23), tn.encrypt(params, 1, 24)},
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.KeyLoads != 2 {
		t.Fatalf("Stats.KeyLoads = %d after two programs, want 2", s.KeyLoads)
	}
}

// TestProgramMakespanDeterministicAndParallel: identical submissions must
// report identical makespans (virtual-lane accounting, not goroutine luck),
// and a wide wavefront on multiple workers must beat its own serial cost.
func TestProgramMakespanDeterministicAndParallel(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e := newEngine(t, params, Config{Workers: 4})

	p := wideTree(t, 16)
	inputs := make([]*fv.Ciphertext, 16)
	for i := range inputs {
		inputs[i] = tn.encrypt(params, 1, uint64(40+i))
	}
	r1, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: p, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: p, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanCycles != r2.MakespanCycles || r1.SerialCycles != r2.SerialCycles {
		t.Fatalf("makespan not deterministic: %d/%d vs %d/%d",
			r1.MakespanCycles, r1.SerialCycles, r2.MakespanCycles, r2.SerialCycles)
	}
	if r1.MakespanCycles >= r1.SerialCycles {
		t.Fatalf("wavefront makespan %d did not beat serial %d on %d workers",
			r1.MakespanCycles, r1.SerialCycles, r1.Workers)
	}
	if got := tn.decrypt(params, r1.Outputs[0]); got != 16%params.Cfg.T {
		t.Fatalf("add tree of 16 ones decrypts to %d", got)
	}
}

func TestProgramFailsFastWithoutKeys(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "nokey", 7)
	e := newEngine(t, params, Config{Workers: 1})

	p := mulChain(t, 2)
	_, err := e.SubmitProgram(context.Background(), ProgramOp{
		Tenant: "nokey", Prog: p,
		Inputs: []*fv.Ciphertext{tn.encrypt(params, 1, 31), tn.encrypt(params, 1, 32)},
	})
	if !errors.Is(err, ErrNoKey) {
		t.Fatalf("missing relin key: err = %v, want ErrNoKey", err)
	}
	if s := e.Stats(); s.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", s.Failed)
	}
}

func TestProgramAdmissionAndShutdown(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e := newEngine(t, params, Config{Workers: 1})

	// Wrong input count is rejected before admission.
	p := wideTree(t, 4)
	if _, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: p}); err == nil {
		t.Fatal("missing inputs accepted")
	}

	// After Shutdown, submission fails with ErrShutdown.
	e2, err := New(Config{Params: params, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	inputs := make([]*fv.Ciphertext, 4)
	for i := range inputs {
		inputs[i] = tn.encrypt(params, 1, uint64(50+i))
	}
	if _, err := e2.SubmitProgram(context.Background(), ProgramOp{Prog: p, Inputs: inputs}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown submit: %v, want ErrShutdown", err)
	}
}

// TestProgramNoiseGuard: every program is bounded from fresh inputs on the
// server's own noise model, so the deepest Mult chain the parameter set
// carries runs and one Mult more is refused before execution.
func TestProgramNoiseGuard(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e := newEngine(t, params, Config{Workers: 1})
	e.SetRelinKey(tn.name, tn.rk)

	m := fv.NewNoiseModel(params)
	depth := 1
	for mulChain(t, depth+1).PredictBudget(m, m.Fresh()) >= minNoiseBudgetBits {
		depth++
	}
	inputs := []*fv.Ciphertext{tn.encrypt(params, 1, 61), tn.encrypt(params, 1, 62)}
	_, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: mulChain(t, depth+1), Inputs: inputs})
	if !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("chain of %d Mults: err = %v, want ErrNoiseBudget", depth+1, err)
	}
	if s := e.Stats(); s.NoiseRejected != 1 || s.Programs != 0 {
		t.Fatalf("NoiseRejected = %d, Programs = %d; want 1 and 0", s.NoiseRejected, s.Programs)
	}
	if _, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: mulChain(t, depth), Inputs: inputs}); err != nil {
		t.Fatalf("chain of %d Mults refused: %v", depth, err)
	}
	t.Logf("deepest Mult chain from fresh inputs: %d", depth)
}

// TestProgramSharesPoolWithOps: single ops and a program in flight together
// must both complete — the two work sources share one worker pool without
// starving each other.
func TestProgramSharesPoolWithOps(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e := newEngine(t, params, Config{Workers: 2})
	e.SetRelinKey(tn.name, tn.rk)

	inputs := make([]*fv.Ciphertext, 8)
	for i := range inputs {
		inputs[i] = tn.encrypt(params, 1, uint64(70+i))
	}
	p := wideTree(t, 8)

	done := make(chan error, 2)
	go func() {
		_, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: p, Inputs: inputs})
		done <- err
	}()
	go func() {
		_, err := e.Submit(context.Background(), Op{Kind: OpAdd, A: inputs[0], B: inputs[1]})
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent op/program: %v", err)
		}
	}
	s := e.Stats()
	if s.Programs != 1 || s.ProgramNodes != uint64(len(p.Nodes)) {
		t.Fatalf("Programs/ProgramNodes = %d/%d, want 1/%d", s.Programs, s.ProgramNodes, len(p.Nodes))
	}
}

// TestProgramFailureWaitsOutItsWavefront: when one node of a wavefront fails,
// SubmitProgram returns only after the level's other nodes have finished —
// they are still reading the program's inputs on other workers, and a caller
// that recycles its operands (the data node's wire front-end does) may
// overwrite them as soon as SubmitProgram returns. The failing Mul is refused
// by the scheduler before it computes anything; its sibling is a real Mul,
// orders of magnitude slower, so a return that does not wait finds no
// completed node on any worker.
func TestProgramFailureWaitsOutItsWavefront(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "acme", 7)
	e := newEngine(t, params, Config{Workers: 2})
	e.SetRelinKey(tn.name, tn.rk)
	b := program.NewBuilder()
	x, z := b.Input(), b.Input()
	b.Output(b.Mul(x, x))
	b.Output(b.Mul(z, z)) // fails at run time: z arrives with three elements
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ct := tn.encrypt(params, 3, 1)
	unrelinearized := fv.NewEvaluator(params).MulNoRelin(ct, ct)
	_, err = e.SubmitProgram(context.Background(), ProgramOp{Tenant: tn.name, Prog: p, Inputs: []*fv.Ciphertext{ct, unrelinearized}})
	if err == nil {
		t.Fatal("a Mul of a three-element ciphertext succeeded")
	}
	var finished uint64
	for _, w := range e.workers {
		finished += w.ops.Load()
	}
	if finished != 1 {
		t.Fatalf("SubmitProgram returned (%v) with %d of the failed wavefront's other nodes finished, want 1", err, finished)
	}
}

// TestProgramCancelWaitsOutItsWavefront: cancellation while a wavefront is
// being handed out stops the dispatch, but SubmitProgram still returns only
// after the nodes already on workers have finished — they read the program's
// inputs, exactly as in the failure case above. One worker is held inside the
// first of three independent Muls, so the dispatch loop is blocked on the
// second when the context is cancelled.
func TestProgramCancelWaitsOutItsWavefront(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "acme", 7)
	e := newEngine(t, params, Config{Workers: 1})
	e.SetRelinKey(tn.name, tn.rk)
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e.testExecHook = func(int) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	b := program.NewBuilder()
	x := b.Input()
	for i := 0; i < 3; i++ {
		b.Output(b.Mul(x, x))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ct := tn.encrypt(params, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.SubmitProgram(ctx, ProgramOp{Tenant: tn.name, Prog: p, Inputs: []*fv.Ciphertext{ct}})
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		finished := e.workers[0].ops.Load()
		close(gate) // let the engine shut down
		t.Fatalf("SubmitProgram returned (%v) with %d nodes finished while the first Mul is still reading its inputs", err, finished)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled program returned %v, want context.Canceled", err)
	}
	if finished := e.workers[0].ops.Load(); finished != 1 {
		t.Fatalf("%d nodes finished, want 1: the held Mul waited out, the other two never dispatched", finished)
	}
}
