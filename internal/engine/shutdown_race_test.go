package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fv"
	"repro/internal/program"
)

// TestEngineShutdownRacesSubmits hammers Shutdown with concurrent Submits
// and SubmitPrograms, so the one close of the job stream races both of its
// producers: everything admitted before the close must complete (ops decrypt
// correctly, programs bit-identical to the reference interpreter), every
// submit that loses the race must get the typed ErrShutdown, the counters
// must balance, and no goroutine may leak. Run with -race; the interleavings
// are the test.
func TestEngineShutdownRacesSubmits(t *testing.T) {
	baseline := runtime.NumGoroutine()

	params := testParams(t)
	tn := newTenant(t, params, "", 7)
	e, err := New(Config{Params: params, Workers: 2, QueueDepth: 64, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.SetRelinKey(tn.name, tn.rk)

	a := tn.encrypt(params, 9, 301)
	b := tn.encrypt(params, 13, 302)

	// A two-wavefront program: a Mul and an Add side by side, then their sum.
	pb := program.NewBuilder()
	x, y := pb.Input(), pb.Input()
	pb.Output(pb.Add(pb.Mul(x, y), pb.Add(x, y)))
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []*fv.Ciphertext{a, b}
	want, err := program.Run(params, prog, inputs, program.Keys{Relin: tn.rk})
	if err != nil {
		t.Fatal(err)
	}

	const submitters, programmers = 8, 2
	var (
		completed atomic.Uint64
		programs  atomic.Uint64
		shutdowns atomic.Uint64
		overloads atomic.Uint64
		started   sync.WaitGroup
		wg        sync.WaitGroup
	)
	// race runs one racer: submit, which checks whatever it was admitted to
	// compute, until ErrShutdown, backing off on ErrOverloaded.
	race := func(submit func() error) {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for {
				err := submit()
				if first {
					started.Done()
					first = false
				}
				switch {
				case err == nil:
				case errors.Is(err, ErrShutdown):
					// The typed late-submit error; this racer is done.
					shutdowns.Add(1)
					return
				case errors.Is(err, ErrOverloaded):
					overloads.Add(1)
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}()
	}
	for s := 0; s < submitters; s++ {
		race(func() error {
			res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
			if err == nil {
				if got := tn.decrypt(params, res.Ct); got != 117 {
					t.Errorf("drained request decrypted to %d, want 117", got)
				}
				completed.Add(1)
			}
			return err
		})
	}
	for s := 0; s < programmers; s++ {
		race(func() error {
			res, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: prog, Inputs: inputs})
			if err == nil {
				if !res.Outputs[0].Equal(want[0]) {
					t.Error("drained program diverges from the reference interpreter")
				}
				programs.Add(1)
			}
			return err
		})
	}

	// Let every racer get at least one submission through, then shut down
	// while they keep hammering.
	started.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()

	if got := shutdowns.Load(); got != submitters+programmers {
		t.Fatalf("%d of %d racers saw ErrShutdown", got, submitters+programmers)
	}
	if completed.Load() == 0 || programs.Load() == 0 {
		t.Fatalf("%d ops and %d programs completed before the drain; the race window never opened",
			completed.Load(), programs.Load())
	}
	t.Logf("drained %d ops and %d programs (%d overload back-offs)", completed.Load(), programs.Load(), overloads.Load())
	// A second Shutdown is a no-op, and late submits keep getting the typed
	// error.
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("late submit returned %v, want ErrShutdown", err)
	}
	if _, err := e.SubmitProgram(context.Background(), ProgramOp{Prog: prog, Inputs: inputs}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("late program returned %v, want ErrShutdown", err)
	}

	// Every admitted request and program was accounted exactly once: nothing
	// dropped on the floor mid-drain.
	st := e.Stats()
	if st.Submitted != st.Completed+st.Failed+st.Expired {
		t.Fatalf("counters leak requests: submitted %d != completed %d + failed %d + expired %d",
			st.Submitted, st.Completed, st.Failed, st.Expired)
	}
	if st.Completed != completed.Load()+programs.Load() || st.Programs != programs.Load() {
		t.Fatalf("engine counted %d completions (%d programs), clients saw %d ops and %d programs",
			st.Completed, st.Programs, completed.Load(), programs.Load())
	}

	// No goroutine leaks: the worker pool, batcher, and per-request
	// machinery must all be gone. (No leak-detector dependency — poll the
	// runtime until the count settles back to the pre-engine baseline.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
