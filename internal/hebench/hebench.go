// Package hebench regenerates every table of the paper's evaluation
// (Sec. VI) from the simulator and the software library, pairing each
// measured value with the paper's published number so EXPERIMENTS.md and
// cmd/hetables can show them side by side. Each table carries the exact
// figures its rows are read from: rows of the repository's BENCH_sim.json,
// which this package's tests recompute and compare.
package hebench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/program"
	"repro/internal/sampler"
	"repro/internal/sched"
)

// Row is one table line: a measured value against the paper's.
type Row struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
	Note     string
}

// Table is a rendered experiment.
type Table struct {
	ID      string
	Title   string
	Rows    []Row
	Notes   []string
	Figures []Figure // the exact figures the rows are read from
}

// Figure is one exact figure of the simulated platform, a row of
// BENCH_sim.json: its value on its clock — "sim_cycles" (co-processor
// cycles) and "bytes" are integers, "ratio" is a quotient of exact figures
// such as Mults per simulated second — and the test whose behaviour it pins.
type Figure struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Clock string  `json:"clock"`
	Test  string  `json:"test"`
}

func cycles(name string, c hwsim.Cycles, test string) Figure {
	return Figure{Name: name, Value: float64(c), Clock: "sim_cycles", Test: test}
}

func ratio(name string, v float64, test string) Figure {
	return Figure{Name: name, Value: v, Clock: "ratio", Test: test}
}

// DeviationPct returns the signed percent deviation of a row, or 0 when the
// paper value is absent.
func (r Row) DeviationPct() float64 {
	if r.Paper == 0 {
		return 0
	}
	return 100 * (r.Measured - r.Paper) / r.Paper
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "  %-42s %14s %14s %8s %s\n", "row", "paper", "measured", "dev", "unit")
	for _, r := range t.Rows {
		dev := "-"
		if r.Paper != 0 {
			dev = fmt.Sprintf("%+.0f%%", r.DeviationPct())
		}
		note := ""
		if r.Note != "" {
			note = "  (" + r.Note + ")"
		}
		fmt.Fprintf(w, "  %-42s %14s %14s %8s %s%s\n",
			r.Name, fmtVal(r.Paper), fmtVal(r.Measured), dev, r.Unit, note)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func fmtVal(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.0f", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Suite holds the instantiated paper-scale system shared by all experiments.
type Suite struct {
	Params *fv.Params
	SK     *fv.SecretKey
	PK     *fv.PublicKey
	RK     *fv.RelinKey

	HW *sched.Scheduler // the HPS co-processor

	CtA, CtB *fv.Ciphertext

	tablesOnce sync.Once
	tables     []Table
	tablesErr  error
}

var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

// PaperSuite builds (once per process) the full paper-parameter system.
func PaperSuite() (*Suite, error) {
	suiteOnce.Do(func() {
		suiteVal, suiteErr = NewSuite(fv.PaperConfig(2))
	})
	return suiteVal, suiteErr
}

// NewSuite instantiates a suite for an arbitrary configuration.
func NewSuite(cfg fv.Config) (*Suite, error) {
	params, err := fv.NewParams(cfg)
	if err != nil {
		return nil, err
	}
	prng := sampler.NewPRNG(2019)
	kg := fv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk)

	s := &Suite{Params: params, SK: sk, PK: pk, RK: rk}
	if s.HW, err = sched.NewDefault(params); err != nil {
		return nil, err
	}
	enc := fv.NewEncryptor(params, pk, prng)
	a := fv.NewPlaintext(params)
	b := fv.NewPlaintext(params)
	for i := 0; i < params.N(); i++ {
		a.Coeffs[i] = uint64(i) % params.T()
		b.Coeffs[i] = uint64(i+1) % params.T()
	}
	s.CtA = enc.Encrypt(a)
	s.CtB = enc.Encrypt(b)
	return s, nil
}

// TableI reproduces "Performance of high-level operations using one
// coprocessor": Arm cycle counts and milliseconds for Mult in HW, Add in HW,
// Add in SW, and the ciphertext transfers.
func (s *Suite) TableI() (Table, error) {
	t := Table{ID: "Table I", Title: "Performance of high-level operations (one co-processor)"}
	_, repMul, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
	if err != nil {
		return t, err
	}
	_, repAdd, err := s.HW.Add(s.CtA, s.CtB)
	if err != nil {
		return t, err
	}
	arm := hwsim.ArmModel{Timing: hwsim.DefaultTiming()}
	swAdd := arm.SWAddSeconds(s.Params.N(), 2)

	t.Rows = []Row{
		{Name: "Mult in HW", Paper: 4.458, Measured: repMul.ComputeSeconds() * 1e3, Unit: "ms"},
		{Name: "Mult in HW (Arm cycles)", Paper: 5349567, Measured: float64(repMul.ArmCycles()), Unit: "cycles"},
		{Name: "Add in HW", Paper: 0.026, Measured: repAdd.ComputeSeconds() * 1e3, Unit: "ms"},
		{Name: "Add in SW", Paper: 45.567, Measured: swAdd * 1e3, Unit: "ms", Note: "Arm cost model"},
		{Name: "Send two ciphertexts to HW", Paper: 0.362, Measured: repMul.SendCycles.Seconds() * 1e3, Unit: "ms"},
		{Name: "Receive result ciphertext", Paper: 0.180, Measured: repMul.ReceiveCycles.Seconds() * 1e3, Unit: "ms"},
	}
	t.Notes = append(t.Notes,
		"HW timings exclude operand/result transfer, as in the paper; Mult includes relin-key streaming")
	t.Figures = []Figure{
		cycles("bfv.mul.compute", repMul.ComputeCycles, "sched.TestCyclesPredictTheTrace"),
		cycles("bfv.mul.send", repMul.SendCycles, "sched.TestTraditionalMulPriced"),
		cycles("bfv.mul.receive", repMul.ReceiveCycles, "sched.TestTraditionalMulPriced"),
		cycles("bfv.add.compute", repAdd.ComputeCycles, "hebench.TestPaperDeviations"),
	}
	return t, nil
}

// TableII reproduces "Performance of individual instructions": per-call
// microseconds and call counts for one Mult.
func (s *Suite) TableII() (Table, error) {
	t := Table{ID: "Table II", Title: "Performance of individual instructions (per Mult)"}
	// Run one Mult on a fresh stats window.
	s.HW.C.ResetStats()
	if _, _, err := s.HW.Mul(s.CtA, s.CtB, s.RK); err != nil {
		return t, err
	}
	stats := s.HW.C.Stats

	paper := map[hwsim.Op]struct {
		calls int
		us    float64
		fig   string
	}{
		hwsim.OpNTT:   {14, 73.0, "ntt"},
		hwsim.OpINTT:  {8, 85.0, "intt"},
		hwsim.OpCMul:  {20, 13.1, "cmul"},
		hwsim.OpCAdd:  {26, 13.6, "cadd"},
		hwsim.OpRearr: {22, 20.8, "rearr"},
		hwsim.OpLift:  {4, 82.6, "lift"},
		hwsim.OpScale: {3, 82.7, "scale"},
	}
	// The simulator splits the paper's "Memory Rearrange" into Rearr and the
	// relin digit extraction (WordDecomp); merge them for comparison.
	merged := map[hwsim.Op]*hwsim.OpStat{}
	for op, st := range stats.PerOp {
		key := op
		if op == hwsim.OpDecomp {
			key = hwsim.OpRearr
		}
		if m, ok := merged[key]; ok {
			m.Calls += st.Calls
			m.TotalCycles += st.TotalCycles
		} else {
			cp := *st
			merged[key] = &cp
		}
	}
	for _, op := range []hwsim.Op{hwsim.OpNTT, hwsim.OpINTT, hwsim.OpCMul,
		hwsim.OpCAdd, hwsim.OpRearr, hwsim.OpLift, hwsim.OpScale} {
		st := merged[op]
		if st == nil {
			continue
		}
		ref := paper[op]
		t.Rows = append(t.Rows,
			Row{Name: op.String() + " (# calls)", Paper: float64(ref.calls), Measured: float64(st.Calls), Unit: "calls"},
			Row{Name: op.String() + " (per call)", Paper: ref.us, Measured: st.PerCall().Micros(), Unit: "µs"})
		t.Figures = append(t.Figures, cycles("bfv.mul."+ref.fig+".per_call", st.PerCall(), "hebench.TestPaperDeviations"))
	}
	t.Notes = append(t.Notes,
		"CADD call count differs from the paper: our schedule folds the Scale-internal additions into the Scale instruction",
		"Memory Rearrange includes the relin digit extraction (WordDecomp)")
	return t, nil
}

// TableIII reproduces "Comparison of data transfer techniques".
func (s *Suite) TableIII() Table {
	t := Table{ID: "Table III", Title: "Data transfer techniques (98,304-byte polynomial)"}
	d := hwsim.DMA{Timing: hwsim.DefaultTiming()}
	const bytes = 98304
	cases := []struct {
		name  string
		chunk int
		paper float64
		fig   string
	}{
		{"Single transfer of 98,304 bytes", 0, 76, "dma.poly.single"},
		{"Transfers with 16,384-byte chunks", 16384, 109, "dma.poly.chunks_16k"},
		{"Transfers with 1,024-byte chunks", 1024, 202, "dma.poly.chunks_1k"},
	}
	for _, c := range cases {
		tr := hwsim.Transfer{Bytes: bytes, ChunkSize: c.chunk}
		t.Rows = append(t.Rows, Row{
			Name:     c.name,
			Paper:    c.paper,
			Measured: d.Seconds(tr) * 1e6,
			Unit:     "µs",
		})
		t.Figures = append(t.Figures, cycles(c.fig, d.FPGACycles(tr), "hwsim.TestDMAModelMatchesTableIIIShape"))
	}
	return t
}

// TableIV reproduces "Resource utilization".
func (s *Suite) TableIV() Table {
	t := Table{ID: "Table IV", Title: "Resource utilization (ZCU102)"}
	cfg := hwsim.PaperResourceConfig()
	single := hwsim.CoprocessorResources(cfg)
	system := hwsim.SystemResources(cfg, 2)
	add := func(prefix string, r hwsim.Resources, lut, ff, bram, dsp float64) {
		t.Rows = append(t.Rows,
			Row{Name: prefix + " LUTs", Paper: lut, Measured: float64(r.LUT), Unit: "LUT"},
			Row{Name: prefix + " Registers", Paper: ff, Measured: float64(r.FF), Unit: "FF"},
			Row{Name: prefix + " BRAMs", Paper: bram, Measured: float64(r.BRAM), Unit: "BRAM36"},
			Row{Name: prefix + " DSPs", Paper: dsp, Measured: float64(r.DSP), Unit: "DSP"})
	}
	add("Two coprocessors & interface", system, 133692, 60312, 815, 416)
	add("Single coprocessor", single, 63522, 25622, 388, 208)
	return t
}

// TableV reproduces "Estimated results for different parameter sets".
func (s *Suite) TableV() Table {
	t := Table{ID: "Table V", Title: "Estimated results for larger parameter sets (single processor)"}
	rows := hwsim.EstimateParameterSets(4.46, 0.54, 4)
	paperTotals := []float64{5.0, 11.9, 29.6, 80.2}
	for i, e := range rows {
		t.Rows = append(t.Rows, Row{
			Name:     fmt.Sprintf("(2^%d, %d) total Mult time", e.LogN, e.LogQ),
			Paper:    paperTotals[i],
			Measured: e.TotalMS,
			Unit:     "ms",
			Note:     fmt.Sprintf("%dK LUT / %.1fK BRAM / %.1fK DSP", e.LUT, e.BRAM, e.DSP),
		})
	}
	return t
}

// mulPair runs one HPS Mult of the suite's operands and prices the same Mult
// on the traditional architecture (sched.TraditionalMul).
func (s *Suite) mulPair() (hps, trad sched.Report, err error) {
	_, hps, err = s.HW.Mul(s.CtA, s.CtB, s.RK)
	return hps, s.HW.TraditionalMul(hps), err
}

// TableNoHPS reproduces Sec. VI-C, the design point without the HPS
// optimization: traditional Lift/Scale timings and the full Mult, read off
// the cost table.
func (s *Suite) TableNoHPS() (Table, error) {
	t := Table{ID: "Sec. VI-C", Title: "Performance without HPS optimization (225 MHz co-processor)"}
	// Single-core latencies at the traditional design's 225 MHz clock.
	c := s.HW.C
	lift, scale := c.TraditionalCycles(hwsim.OpLift, 1), c.TraditionalCycles(hwsim.OpScale, 1)
	liftMs := float64(lift) / hwsim.TradClockHz * 1e3
	scaleMs := float64(scale) / hwsim.TradClockHz * 1e3

	repFast, rep, err := s.mulPair()
	if err != nil {
		return t, err
	}
	// The traditional platform runs at 225 MHz; convert the cycle count and
	// include operand/result transfers as the paper does for this row.
	multMs := (float64(rep.ComputeCycles)/hwsim.TradClockHz +
		(rep.SendCycles + rep.ReceiveCycles).Seconds()) * 1e3
	fastMs := repFast.TotalSeconds() * 1e3

	t.Rows = []Row{
		{Name: "Traditional Lift q->Q (1 core)", Paper: 1.68, Measured: liftMs, Unit: "ms"},
		{Name: "Traditional Scale Q->q (1 core)", Paper: 4.3, Measured: scaleMs, Unit: "ms"},
		{Name: "Mult on traditional coprocessor", Paper: 8.3, Measured: multMs, Unit: "ms", Note: "4 lift/scale cores, 2-digit relin key"},
		{Name: "Slowdown vs HPS architecture", Paper: 1.86, Measured: multMs / fastMs, Unit: "x", Note: "paper: 'less than 2x slower'"},
	}
	t.Figures = []Figure{
		cycles("trad.lift_1core", lift, "hwsim.TestLiftScaleTimingMatchesPaperShape"),
		cycles("trad.scale_1core", scale, "hwsim.TestLiftScaleTimingMatchesPaperShape"),
		cycles("bfv.trad_mul.compute", rep.ComputeCycles, "sched.TestTraditionalMulPriced"),
	}
	return t, nil
}

// paperCoprocs is the co-processor count of the paper's implemented platform
// (Fig. 11).
const paperCoprocs = 2

// served is the Fig. 11 platform measured where it serves: four Mults as
// one program on an engine. rate is Sec. VI-A's Mults per simulated second
// as the paper counts them, each Mult's operands sent and result received
// serially with its compute; resident is this repository's, operands kept
// in co-processor memory. Both leave out the one-off key prologue keyLoad.
type served struct {
	outs           []*fv.Ciphertext
	rate, resident float64
	keyLoad        hwsim.Cycles
}

// servedMults runs the four-Mult program on an engine of `workers`
// co-processors, built and shut down here, charging each Mult xfer — Table
// I's send and receive rows — for rate.
func (s *Suite) servedMults(workers int, xfer hwsim.Cycles) (served, error) {
	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	for i := 0; i < 4; i++ {
		b.Output(b.Mul(x, y))
	}
	prog, err := b.Build()
	if err != nil {
		return served{}, err
	}
	eng, err := engine.New(engine.Config{Params: s.Params, Workers: workers})
	if err != nil {
		return served{}, err
	}
	// Nothing is in flight once SubmitProgram has returned, so this only
	// stops the workers.
	defer eng.Shutdown(context.Background())
	eng.SetRelinKey("", s.RK)
	res, err := eng.SubmitProgram(context.Background(),
		engine.ProgramOp{Prog: prog, Inputs: []*fv.Ciphertext{s.CtA, s.CtB}})
	if err != nil {
		return served{}, err
	}
	compute := res.MakespanCycles - res.KeyLoadCycles
	perLane := hwsim.Cycles(res.Nodes / workers)
	nodes := float64(res.Nodes)
	return served{
		outs:     res.Outputs,
		rate:     nodes / (compute + perLane*xfer).Seconds(),
		resident: nodes / compute.Seconds(),
		keyLoad:  res.KeyLoadCycles,
	}, nil
}

// Comparison reproduces Sec. VI-E: throughput against the software and
// hardware baselines the paper cites, plus this repository's own pure-Go
// software implementation measured live.
func (s *Suite) Comparison() (Table, error) {
	t := Table{ID: "Sec. VI-E", Title: "Comparison with related implementations (homomorphic Mult)"}
	_, rep, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
	if err != nil {
		return t, err
	}
	multSec := rep.ComputeSeconds()
	two, err := s.servedMults(paperCoprocs, rep.SendCycles+rep.ReceiveCycles)
	if err != nil {
		return t, err
	}

	// Our own software FV, measured.
	ev := fv.NewEvaluator(s.Params)
	start := time.Now()
	const swRuns = 3
	for i := 0; i < swRuns; i++ {
		ev.Mul(s.CtA, s.CtB, s.RK)
	}
	swSec := time.Since(start).Seconds() / swRuns

	// Energy per Mult: peak platform power divided by throughput, against
	// the i5 baseline's ≈40 W over its 33 ms Mult (paper Sec. VI-E).
	peakW := hwsim.PowerW(paperCoprocs)
	simEnergyMJ := peakW / two.rate * 1e3
	i5EnergyMJ := 40.0 * 0.033 * 1e3

	t.Rows = []Row{
		{Name: "This work, 2 coprocessors", Paper: 400, Measured: two.rate, Unit: "Mult/s",
			Note: "send + Mult + receive per co-processor, as the paper counts"},
		{Name: "This repo, 2 coprocessors, resident", Measured: two.resident, Unit: "Mult/s",
			Note: "four-Mult program on a 2-worker engine, operands resident: compute only"},
		{Name: "Speedup vs FV-NFLlib on i5 (33 ms)", Paper: 13.2, Measured: 0.033 * two.rate, Unit: "x"},
		{Name: "This repo's Go software Mult", Measured: swSec * 1e3, Unit: "ms", Note: "pure software baseline, this machine"},
		{Name: "Sim HW speedup vs this repo's software", Measured: swSec / multSec, Unit: "x"},
		{Name: "Peak power (2 coprocessors)", Paper: 8.7, Measured: peakW, Unit: "W"},
		{Name: "Energy per Mult", Measured: simEnergyMJ, Unit: "mJ",
			Note: fmt.Sprintf("vs ≈%.0f mJ on the i5 baseline (≈%.0fx better)", i5EnergyMJ, i5EnergyMJ/simEnergyMJ)},
	}
	t.Notes = append(t.Notes,
		"Paper constants for context: FV-NFLlib/i5 33 ms; Badawi GPU V100 0.86 ms at 60-bit q (≈2.6 ms at 180-bit, 388 Mult/s); Pöppelmann Catapult 6.75 ms (YASHE)",
		"Throughput uses two co-processors on independent Mults, as in the paper")
	t.Figures = []Figure{
		ratio("sec6a.2cp.mult_per_s", two.rate, "hebench.TestTwoCoprocessorsServeTwiceTheMults"),
		ratio("sec6a.2cp.resident_mult_per_s", two.resident, "hebench.TestTwoCoprocessorsServeTwiceTheMults"),
		cycles("bfv.relin_key.load", two.keyLoad, "engine.TestProgramLoadsEachKeyOnce"),
	}
	return t, nil
}

// Ablations quantifies the design decisions DESIGN.md lists.
func (s *Suite) Ablations() (Table, error) {
	t := Table{ID: "Ablations", Title: "Design-choice ablations (paper design points)"}
	c := s.HW.C
	paired := float64(hwsim.NTTCycles(c.N, c.Timing))
	naive := float64(hwsim.NaiveNTTCycles(c.N, c.Timing))
	bubble := float64(hwsim.BubbleNTTCycles(c.N, c.Timing))

	repFast, repTrad, err := s.mulPair()
	if err != nil {
		return t, err
	}

	d := hwsim.DMA{Timing: hwsim.DefaultTiming()}
	single := d.Seconds(hwsim.Transfer{Bytes: 98304})
	chunked := d.Seconds(hwsim.Transfer{Bytes: 98304, ChunkSize: 1024})

	// Block-level task overlap: record one Mult's instruction trace and
	// compute the makespan with RPAUs, Lift/Scale cores and DMA running
	// concurrently (the paper's block-level pipeline strategy).
	rec, err := s.recordedMul()
	if err != nil {
		return t, err
	}
	overlap := sched.AnalyzeOverlap(rec.Trace)

	f1 := hwsim.F1CoprocessorsPerFPGA(hwsim.PaperResourceConfig())

	// Two co-processors against one on the same four-Mult program.
	xfer := repFast.SendCycles + repFast.ReceiveCycles
	two, err := s.servedMults(paperCoprocs, xfer)
	if err != nil {
		return t, err
	}
	one, err := s.servedMults(1, xfer)
	if err != nil {
		return t, err
	}

	t.Rows = []Row{
		{Name: "Block-level task overlap (modeled)", Measured: overlap.Speedup(), Unit: "x",
			Note: "same trace, units overlapped under data deps"},
		{Name: "Co-processors per AWS F1 FPGA", Paper: 10, Measured: float64(f1), Unit: "cores",
			Note: "paper Discussion: 'at least ten'"},
		{Name: "Paired vs naive BRAM layout (NTT)", Measured: naive / paired, Unit: "x", Note: "paper's [30] layout removes this"},
		{Name: "Twiddle ROM vs on-the-fly (NTT)", Measured: bubble / paired, Unit: "x", Note: "paper cites 20% bubbles in [20]"},
		{Name: "HPS vs traditional Mult (cycles)", Measured: float64(repTrad.ComputeCycles) / float64(repFast.ComputeCycles), Unit: "x"},
		{Name: "Pipelined vs unpipelined clock", Measured: hwsim.EstimateClockHz(1) / hwsim.UnpipelinedClockHz(), Unit: "x"},
		{Name: "Single vs 1KB-chunked DMA", Measured: chunked / single, Unit: "x"},
		{Name: "2 vs 1 coprocessors (throughput)", Paper: 2, Measured: two.rate / one.rate, Unit: "x",
			Note: "same four-Mult program, engine makespan on the simulated clock"},
	}
	t.Figures = []Figure{
		cycles("bfv.mul.overlap.sequential", overlap.Sequential, "sched.TestMulTraceOverlap"),
		cycles("bfv.mul.overlap.overlapped", overlap.Overlapped, "sched.TestMulTraceOverlap"),
		cycles("bfv.mul.overlap.critical_path", overlap.CriticalPath, "sched.TestMulTraceOverlap"),
		cycles("ntt.paired", hwsim.NTTCycles(c.N, c.Timing), "hwsim.TestInstructionTimingMatchesPaperShape"),
		cycles("ntt.naive", hwsim.NaiveNTTCycles(c.N, c.Timing), "hwsim.TestNTTUnitAblations"),
		cycles("ntt.bubble", hwsim.BubbleNTTCycles(c.N, c.Timing), "hwsim.TestNTTUnitAblations"),
		ratio("sec6a.1cp.mult_per_s", one.rate, "hebench.TestTwoCoprocessorsServeTwiceTheMults"),
		ratio("sec6a.1cp.resident_mult_per_s", one.resident, "hebench.TestTwoCoprocessorsServeTwiceTheMults"),
	}
	return t, nil
}

// recordedMul runs one Mult on a fresh co-processor with the scheduler's
// instruction trace switched on and returns that scheduler.
func (s *Suite) recordedMul() (*sched.Scheduler, error) {
	rec, err := sched.NewDefault(s.Params)
	if err != nil {
		return nil, err
	}
	rec.Record = true
	if _, _, err := rec.Mul(s.CtA, s.CtB, s.RK); err != nil {
		return nil, err
	}
	return rec, nil
}

// MulProgramListing returns the assembly-style instruction listing of one
// FV.Mult on the co-processor (the paper's Fig. 2 pipeline as the ISA sees
// it), with per-instruction cycle counts.
func (s *Suite) MulProgramListing() (string, error) {
	rec, err := s.recordedMul()
	if err != nil {
		return "", err
	}
	return rec.ProgramListing(), nil
}

// AllTables runs everything in paper order, once per suite: every later
// call returns the same tables.
func (s *Suite) AllTables() ([]Table, error) {
	s.tablesOnce.Do(func() { s.tables, s.tablesErr = s.allTables() })
	return s.tables, s.tablesErr
}

func (s *Suite) allTables() ([]Table, error) {
	var out []Table
	t1, err := s.TableI()
	if err != nil {
		return nil, err
	}
	t2, err := s.TableII()
	if err != nil {
		return nil, err
	}
	out = append(out, t1, t2, s.TableIII(), s.TableIV(), s.TableV())
	tn, err := s.TableNoHPS()
	if err != nil {
		return nil, err
	}
	tc, err := s.Comparison()
	if err != nil {
		return nil, err
	}
	ta, err := s.Ablations()
	if err != nil {
		return nil, err
	}
	return append(out, tn, tc, ta), nil
}

// RenderAll writes every table to w.
func (s *Suite) RenderAll(w io.Writer) error {
	tables, err := s.AllTables()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, strings.Repeat("=", 78))
	fmt.Fprintf(w, "Paper-vs-measured reproduction, parameter set n=%d, log q=%d, σ=%.0f\n",
		s.Params.N(), s.Params.LogQ(), s.Params.Cfg.Sigma)
	fmt.Fprintln(w, strings.Repeat("=", 78))
	for _, t := range tables {
		t.Render(w)
	}
	return nil
}
