package repro

// Benchmarks of the simulator and evaluator code behind the paper's
// evaluation artifacts. The Go benchmark timing measures the *simulator's
// host cost*; the reproduced quantity — the simulated hardware time — is
// attached via b.ReportMetric as "sim-ms/op" or "sim-µs/op", so
// `go test -bench .` prints the paper-comparable values alongside. Rows that
// are a closed form (Tables III–V, the Arm cost model, the two-co-processor
// throughput) have no benchmark: internal/hebench computes them once and
// cmd/hetables prints them.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hebench"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/sampler"
)

func suite(b *testing.B) *hebench.Suite {
	b.Helper()
	s, err := hebench.PaperSuite()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Table I: high-level operations on one co-processor ---

func BenchmarkTableI_MultInHW(b *testing.B) {
	s := suite(b)
	var simMS float64
	for i := 0; i < b.N; i++ {
		_, rep, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
		if err != nil {
			b.Fatal(err)
		}
		simMS = rep.ComputeSeconds() * 1e3
	}
	b.ReportMetric(simMS, "sim-ms/op") // paper: 4.458 ms
}

func BenchmarkTableI_AddInHW(b *testing.B) {
	s := suite(b)
	var simMS float64
	for i := 0; i < b.N; i++ {
		_, rep, err := s.HW.Add(s.CtA, s.CtB)
		if err != nil {
			b.Fatal(err)
		}
		simMS = rep.ComputeSeconds() * 1e3
	}
	b.ReportMetric(simMS, "sim-ms/op") // paper: 0.026 ms
}

// --- Table II: individual instructions ---

// benchInstr reports one instruction's entry in the paper-set co-processor's
// cost table, the figure Exec charges it.
func benchInstr(b *testing.B, op hwsim.Op, paperUS float64) {
	b.Helper()
	c := suite(b).HW.C
	var cyc hwsim.Cycles
	for i := 0; i < b.N; i++ {
		cyc = c.Cycles(hwsim.Instr{Op: op})
	}
	b.ReportMetric(cyc.Micros(), "sim-µs/op")
	b.ReportMetric(paperUS, "paper-µs/op")
}

func BenchmarkTableII_NTT(b *testing.B)        { benchInstr(b, hwsim.OpNTT, 73.0) }
func BenchmarkTableII_InverseNTT(b *testing.B) { benchInstr(b, hwsim.OpINTT, 85.0) }
func BenchmarkTableII_CoeffMul(b *testing.B)   { benchInstr(b, hwsim.OpCMul, 13.1) }
func BenchmarkTableII_LiftQtoQ(b *testing.B)   { benchInstr(b, hwsim.OpLift, 82.6) }
func BenchmarkTableII_ScaleQtoQ(b *testing.B)  { benchInstr(b, hwsim.OpScale, 82.7) }

// --- Fig. 3: the dual-core NTT memory schedule ---

func BenchmarkFig3_ScheduleValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cycles, conflicts, err := hwsim.ValidateNTTSchedule(4096)
		if err != nil || len(conflicts) != 0 {
			b.Fatalf("schedule broken: %v %v", err, conflicts)
		}
		if i == 0 {
			b.ReportMetric(float64(cycles), "butterfly-cycles")
		}
	}
}

// --- internal/engine: serving-layer throughput vs. worker count ---

// BenchmarkEngineThroughput drives the serving engine (queue → batcher →
// worker pool) with homomorphic Mults at pool sizes 1/2/4/8. Two metrics
// are attached: real host ops/s (bounded by this machine's cores — the
// simulator computes for real), and sim-ops/s, the simulated-hardware
// throughput ops ÷ busiest worker's simulated busy time, which is the
// quantity that scales with the co-processor count as in the paper's
// Sec. VI-A dual-co-processor experiment.
func BenchmarkEngineThroughput(b *testing.B) {
	params, err := fv.NewParams(fv.TestConfig(65537))
	if err != nil {
		b.Fatal(err)
	}
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(42))
	_, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(7))
	pt := fv.NewPlaintext(params)
	pt.Coeffs[0] = 3
	ctA := enc.Encrypt(pt)
	pt.Coeffs[0] = 5
	ctB := enc.Encrypt(pt)

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := engine.New(engine.Config{
				Params:     params,
				Workers:    workers,
				QueueDepth: 64 * workers,
				MaxBatch:   4,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng.SetRelinKey("", rk)
			defer eng.Shutdown(context.Background())

			inflight := make(chan struct{}, 4*workers)
			var failures atomic.Uint64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				inflight <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-inflight }()
					if _, err := eng.Submit(context.Background(), engine.Op{Kind: engine.OpMul, A: ctA, B: ctB}); err != nil {
						failures.Add(1)
					}
				}()
			}
			wg.Wait()
			wall := time.Since(start)
			b.StopTimer()
			if n := failures.Load(); n > 0 {
				b.Fatalf("%d submits failed", n)
			}
			st := eng.Stats()
			busiest := 0.0
			for _, w := range st.PerWorker {
				if w.SimSeconds > busiest {
					busiest = w.SimSeconds
				}
			}
			b.ReportMetric(float64(b.N)/wall.Seconds(), "ops/s")
			if busiest > 0 {
				b.ReportMetric(float64(b.N)/busiest, "sim-ops/s")
			}
			b.ReportMetric(st.AvgBatch, "avg-batch")
		})
	}
}

// --- Sec. VI-C: the architecture without HPS ---

func BenchmarkNoHPS_Mult(b *testing.B) {
	s := suite(b)
	var simMS float64
	for i := 0; i < b.N; i++ {
		_, rep, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
		if err != nil {
			b.Fatal(err)
		}
		simMS = float64(s.HW.TraditionalMul(rep).ComputeCycles) / hwsim.TradClockHz * 1e3
	}
	b.ReportMetric(simMS, "sim-ms/op") // paper: 8.3 ms (incl. transfers)
}

// --- Sec. VI-E: the software baseline, actually measured on this machine ---

func BenchmarkSoftwareBaseline_Mult(b *testing.B) {
	s := suite(b)
	ev := fv.NewEvaluator(s.Params)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		ev.Mul(s.CtA, s.CtB, s.RK)
	}
	b.ReportMetric(time.Since(start).Seconds()*1e3/float64(b.N), "ms/op") // paper's i5 baseline: 33 ms
}

func BenchmarkSoftwareBaseline_Add(b *testing.B) {
	s := suite(b)
	ev := fv.NewEvaluator(s.Params)
	for i := 0; i < b.N; i++ {
		ev.Add(s.CtA, s.CtB)
	}
}

// BenchmarkMulRelin isolates the software Mult pipeline at the paper's
// parameter set with explicit pool widths: width 1 is the sequential
// reference, width 7 the RPAU-sized fan-out (identical bits, different
// wall-clock on multi-core hosts). This is the benchmark the tentpole's
// Shoup/lazy-reduction kernels, fused zero-allocation pipeline, and pool
// fan-out target; run with -benchmem, the allocs/op column must read 0 (the
// one warm-up call before the timer sizes the evaluator scratch).
func BenchmarkMulRelin(b *testing.B) {
	for _, poolSize := range []int{1, poly.PaperRPAUs} {
		b.Run(fmt.Sprintf("pool=%d", poolSize), func(b *testing.B) {
			cfg := fv.PaperConfig(2)
			cfg.PoolSize = poolSize
			params, err := fv.NewParams(cfg)
			if err != nil {
				b.Fatal(err)
			}
			kg := fv.NewKeyGenerator(params, sampler.NewPRNG(42))
			sk := kg.GenSecretKey()
			pk := kg.GenPublicKey(sk)
			rk := kg.GenRelinKey(sk)
			enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(7))
			pt := fv.NewPlaintext(params)
			pt.Coeffs[0] = 1
			ctA := enc.Encrypt(pt)
			ctB := enc.Encrypt(pt)
			ev := fv.NewEvaluator(params)
			out := fv.NewCiphertext(params, 2)
			ev.MulInto(ctA, ctB, rk, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.MulInto(ctA, ctB, rk, out)
			}
		})
	}
}

// --- Ablations ---

func BenchmarkAblation_TraditionalLiftScale(b *testing.B) {
	s := suite(b)
	c := s.HW.C
	var liftMS, scaleMS float64
	for i := 0; i < b.N; i++ {
		liftMS = float64(c.TraditionalCycles(hwsim.OpLift, 1)) / hwsim.TradClockHz * 1e3
		scaleMS = float64(c.TraditionalCycles(hwsim.OpScale, 1)) / hwsim.TradClockHz * 1e3
	}
	b.ReportMetric(liftMS, "sim-lift-ms")   // paper: 1.68 ms
	b.ReportMetric(scaleMS, "sim-scale-ms") // paper: 4.3 ms
}
