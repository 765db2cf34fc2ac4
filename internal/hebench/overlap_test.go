package hebench

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/hwsim"
)

// overlapStream schedules a stream of ops independent Mults double-buffered
// (operand DMA of op i+1 hidden behind op i's compute) on the paper suite's
// co-processor: one Mult's report, (load, compute, store), is every step of
// hwsim's stream model, since cycle counts never depend on coefficient
// values. Pure hardware model — no wall clock anywhere — so every number in
// the timing is exact.
func overlapStream(t *testing.T, ops int) hwsim.StreamTiming {
	t.Helper()
	s, err := PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
	if err != nil {
		t.Fatal(err)
	}
	polyB := hwsim.PolyBytes(s.Params.N(), s.Params.QBasis.K())
	steps := make([]hwsim.StreamStep, ops)
	for i := range steps {
		steps[i] = hwsim.StreamStep{LoadBytes: 4 * polyB, Compute: rep.ComputeCycles, StoreBytes: 2 * polyB}
	}
	return s.HW.C.DMAEng.SimulateStream(steps, 2)
}

// streamOps is the depth of the stream TestSchedOverlapWins and
// BENCH_sim.json measure.
const streamOps = 4

// measuredStream is the 4-deep stream measured once per test process.
func measuredStream(t *testing.T) hwsim.StreamTiming {
	return once("stream", func() hwsim.StreamTiming { return overlapStream(t, streamOps) })
}

// TestSchedOverlapWins is the overlapped-pipeline acceptance gate: at the
// paper parameter set, a 4-deep Mult stream's double-buffered makespan must
// beat the serial back-to-back cost by exactly the hidden transfer cycles,
// respect the dependency lower bound, and reproduce bit-for-bit across
// reruns. The whole metric is hardware model, so the checks are exact; the
// makespan per op and the saving are rows of BENCH_sim.json.
func TestSchedOverlapWins(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale suite")
	}
	const ops = streamOps
	tm := measuredStream(t)

	// The timing must show a strict win with exact accounting.
	if tm.Pipelined >= tm.Serial {
		t.Fatalf("pipelined %d cycles >= serial %d: overlap hid nothing", tm.Pipelined, tm.Serial)
	}
	if got := tm.Serial - tm.Pipelined; got != tm.Saved {
		t.Fatalf("saved %d != serial-pipelined %d", tm.Saved, got)
	}
	if tm.Pipelined < tm.LowerBound {
		t.Fatalf("pipelined %d beats the dependency lower bound %d: schedule is unphysical",
			tm.Pipelined, tm.LowerBound)
	}
	// Identical ops: every overlapped step should hide the full operand DMA,
	// so the saving is (ops-1) x the per-op load cost.
	if perStep := uint64(tm.Saved) / (ops - 1); perStep == 0 {
		t.Fatal("zero hidden cycles per overlapped step")
	}
	if again := overlapStream(t, ops); again.Pipelined != tm.Pipelined {
		t.Fatalf("pipelined makespan %d != %d — rerun drifted", again.Pipelined, tm.Pipelined)
	}
	t.Logf("stream of %d: serial %d, pipelined %d, saved %d cycles (%.1f%%)",
		ops, tm.Serial, tm.Pipelined, tm.Saved, 100*float64(tm.Saved)/float64(tm.Serial))
}

// TestMuxThroughputSmoke pushes 12 Mults 4-deep through ONE multiplexed
// connection to a real in-process server — v2 encode, frame checksums,
// server demux, concurrent dispatch, out-of-order completion: every op must
// complete and the engine must have done the work. (Wall-clock speed is the
// business of `go run ./bench`, not asserted here.)
func TestMuxThroughputSmoke(t *testing.T) {
	const ops, depth = 12, 4
	params, rk, ctA, ctB := servingInputs(t)
	eng, err := engine.New(engine.Config{Params: params, Workers: 2, QueueDepth: 4 * ops, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		eng.Shutdown(ctx)
		cancel()
	}()
	eng.SetRelinKey(cloud.DefaultTenant, rk)
	srv := cloud.NewServer(params, eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	mc, err := cloud.DialMux(addr, params)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	idx := make(chan int, ops)
	for i := 0; i < ops; i++ {
		idx <- i
	}
	close(idx)
	errs := make(chan error, depth)
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range idx {
				if _, _, err := mc.MulCtx(context.Background(), ctA, ctB); err != nil {
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
	st := eng.Stats()
	var simCycles uint64
	for _, w := range st.PerWorker {
		simCycles += w.SimCycles
	}
	if st.Completed != ops || simCycles == 0 {
		t.Fatalf("empty measurement: %d of %d ops completed, %d simulated cycles", st.Completed, ops, simCycles)
	}
}
