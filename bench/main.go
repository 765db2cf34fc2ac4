// Command bench is the repository's yard-stick: it boots the real serving
// stack in-process over loopback TCP (cloud.Client/MuxClient → cluster.Server
// → cloud.Server → engine → core → sched → hwsim), drives one seeded
// workload through it with closed-loop clients, checks every response bit
// for bit, and prints every metric by name with its unit. The last line of
// standard output is one JSON object for the driver (see BENCHMARK.json).
//
//	go run ./bench -workload mul_paper -seed 1 -seconds 38 -trace 0
//	go run ./bench -workload mul_paper -seed 1 -seconds 38 -trace 1 -trace-out spans.jsonl
//	go run ./bench -compare results/seed-a.json results/seed-b.json
//
// README.md in this directory explains the clocks, workloads, metrics and
// how the layers interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func workloads() []spec {
	return []spec{mulPaperSpec(), addRoutedSpec(), programSearchSpec(), ckksChainSpec(), swEvalSpec()}
}

// ungated are the workloads BENCHMARK.json does not list, so the driver does
// not run them: they run from the command line like the others, and the
// result files hold them. The driver makes two sets of ten runs of every
// workload it is given and refuses the benchmark if one of them spreads past
// a bound. On this box, whose processors switch between full speed and about
// 0.6 of it for seconds to minutes at a time, ten runs of the same code
// spread 9 % on average on the throughput of the three listed workloads and
// 15 % on these two (program_search up to 35 %; README, "Steadiness"), so
// they stay out of its gate, and the three get the longer window that buys.
// The per-layer metrics time sw_eval's four evaluator calls one by one in
// every traced run.
var ungated = map[string]bool{"program_search": true, "sw_eval": true}

// options are the command's arguments for one run.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	clients  int
}

const (
	// setupRuns is how many times an untraced run sets the stack up; setup_s
	// is their median, which a single cold start does not disturb.
	setupRuns = 5
	// A traced run spends its -seconds on a loaded phase (slices alternating
	// tracing off and on), then the peel; the timed layer calls come last and
	// take a second or two more.
	tracedLoadShare = 0.4
	tracedSlices    = 4
	peelShare       = 0.4
	peelRequests    = 200
)

func main() {
	var o options
	workload := flag.String("workload", "", "workload to run: mul_paper, add_routed, program_search, ckks_chain or sw_eval")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 38, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the peel ladder; 0 = end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON lines")
	flag.IntVar(&o.clients, "clients", 0, "closed-loop clients (0 = the workload's own count, at most nproc)")
	out := flag.String("out", "", "append this run to a result file (JSON)")
	history := flag.String("history", "", "append this run's end-to-end line to a history file (JSON lines)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var sp *spec
	all := workloads()
	for i := range all {
		if all[i].name == *workload {
			sp = &all[i]
		}
	}
	switch {
	case sp == nil:
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	case flag.NArg() != 0:
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	case o.seconds < 1 || o.seconds > 60:
		fatal(fmt.Errorf("-seconds must be between 1 and 60, got %v", o.seconds))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	o.trace = *trace == 1

	rec, err := run(*sp, o)
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, *sp, rec)
	if *out != "" {
		if err := appendResult(*out, *rec); err != nil {
			fatal(err)
		}
	}
	if *history != "" && !o.trace {
		if err := appendHistory(*history, *rec); err != nil {
			fatal(err)
		}
	}

	// The driver's line: end-to-end metrics untraced, per-layer traced.
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{rec.Correct, rec.Requests.Attempted, rec.Requests.Failed, map[string]wireMetric{}}
	for name, v := range rec.Metrics.pick(defs) {
		line.Metrics[name] = wireMetric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run executes one workload once and returns its record.
func run(sp spec, o options) (_ *runRecord, err error) {
	clients, err := clientCount(o.clients, sp.maxClients, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Schema: schemaVersion, Time: nowUTC(), Workload: sp.name, Seed: o.seed, Trace: o.trace,
		Env:     readEnv(),
		Phases:  phaseInfo{Seconds: o.seconds, WarmupRequests: sp.warmup, Clients: clients},
		Metrics: metricSet{},
	}

	// Set-up: parameters, keys, operand pool with its expected results, the
	// stack, the connections and the warm-up, until the first timed request.
	n := setupRuns
	if o.trace {
		n = 1
	}
	var w workload
	var setupS []float64
	for k := 0; k < n; k++ {
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		if w, err = sp.setup(o.seed, clients); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		if err = warm(w, sp.warmup); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < n-1 {
			if err = w.close(); err != nil {
				return nil, fmt.Errorf("%s: tear-down: %w", sp.name, err)
			}
		}
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s: tear-down: %w", sp.name, cerr)
		}
	}()
	rec.Phases.SetupRuns = n
	rec.Metrics.setN("setup_s", median(setupS), n)

	if o.trace {
		err = runTraced(sp, o, w, rec)
	} else {
		loaded := runClosedLoop(w, nil, sp.warmup, secondsToDuration(o.seconds))
		rec.Phases.WindowS = o.seconds
		endToEndMetrics(sp, rec, loaded)
	}
	return rec, err
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// endToEndMetrics fills what a user of the system sees from one loaded
// window, plus the deterministic simulated-clock companions.
func endToEndMetrics(sp spec, rec *runRecord, r *windowResult) {
	m := rec.Metrics
	ok := recordRequests(rec, r)
	if ok == 0 {
		return
	}
	m.setN("throughput_ops_s", r.rate, ok)
	m.setN(latencyP50.Name, percentile(r.latMs, 0.50), ok)
	m.setN(latencyP95.Name, percentile(r.latMs, 0.95), ok)
	m.setN("cpu_ms_per_op", float64(r.after.cpu-r.before.cpu)/1e6/float64(ok), ok)
	m.setN("alloc_kb_per_op", float64(r.after.totalAlloc-r.before.totalAlloc)/1024/float64(ok), ok)
	if dev, ok := simMetrics(sp, m, r, "sim_ms_per_op", "sim_busy_ms_per_op"); ok {
		m.set("sim_paper_dev_pct", dev)
	}
}

// recordRequests notes what a loaded phase attempted and got: a wrong, failed
// or refused response makes the run incorrect. It returns the correct count.
func recordRequests(rec *runRecord, r *windowResult) int {
	ok := r.ok()
	rec.Requests = requestCounts{Attempted: r.attempted, OK: ok, Failed: r.failed}
	rec.Correct = r.failed == 0 && ok > 0
	rec.Errors = r.errs
	rec.StealPct = stealPct(r.before, r.after)
	rec.Metrics.set("fail_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	return ok
}

// simMetrics reports the simulated clock: the median simulated compute time
// the server reported per request, and the simulated time all co-processors
// were busy per request (key streaming included — the reciprocal of the
// paper's Mult/s per co-processor). sw_eval runs no simulator and has none.
// Where the paper's Table I has the operation, it also returns the signed
// deviation of the simulated time from the paper's, in percent.
func simMetrics(sp spec, m metricSet, r *windowResult, perOp, busy string) (paperDevPct float64, hasPaper bool) {
	if len(r.engAfter) == 0 || r.ok() == 0 {
		return 0, false
	}
	simMs := median(r.simNanos) / 1e6
	m.setN(perOp, simMs, r.ok())
	m.set(busy, cyclesToMs(r.simBusyCycles())/float64(r.ok()))
	if sp.paperSimMs == 0 {
		return 0, false
	}
	return 100 * (simMs - sp.paperSimMs) / sp.paperSimMs, true
}

// runTraced is the traced run: a loaded phase with tracing switched on and
// off in alternate slices (their throughput difference is the tracing
// overhead), the peel ladder, then the timed calls into single layers.
func runTraced(sp spec, o options, w workload, rec *runRecord) error {
	m := rec.Metrics
	tr := newRecorder()
	slice := secondsToDuration(o.seconds * tracedLoadShare / tracedSlices)
	var loaded *windowResult
	var rateOff, rateOn float64
	first := sp.warmup
	for k := 0; k < tracedSlices; k++ {
		on := k%2 == 1
		tr.on.Store(on)
		r := runClosedLoop(w, tr, first, slice)
		first += r.attempted/max(w.clients(), 1) + 1
		if on {
			rateOn += r.rate
		} else {
			rateOff += r.rate
		}
		loaded = mergeWindows(loaded, r)
	}
	tr.on.Store(true)
	rec.Phases.WindowS = o.seconds * tracedLoadShare
	rec.Phases.TracedWindowS = rec.Phases.WindowS / 2
	rec.Phases.PeelBudgetS = o.seconds * peelShare

	ok := recordRequests(rec, loaded)
	if ok == 0 {
		return nil // nothing answered: the failure count is the result
	}

	rungs, release, err := w.ladder()
	if err != nil {
		return fmt.Errorf("%s: ladder: %w", sp.name, err)
	}
	lad, err := peel(rungs, peelRequests, secondsToDuration(o.seconds*peelShare), tr)
	release()
	if err != nil {
		return fmt.Errorf("%s: peel: %w", sp.name, err)
	}
	rec.Ladder = lad
	for k, layer := range lad.Layers {
		m.setN(layer, lad.Shares[k], lad.Samples)
	}
	m.setN("client.unloaded_ms", lad.Medians[0], lad.Samples)
	m.set("client.ladder_nested", boolToFloat(lad.Nested))
	// R4 is the simulator's whole host cost per request, where there is one.
	for k, layer := range lad.Layers {
		if layer == "hwsim.model_overhead_ms" {
			m.setN("hwsim.host_ms_per_op", lad.Medians[k], lad.Samples)
		}
	}

	p50 := percentile(loaded.latMs, 0.50)
	m.set("client.load_inflation", p50/lad.Medians[0])
	m.setN("client.latency_p50_ms", p50, ok)
	m.setN("client.latency_p95_ms", percentile(loaded.latMs, 0.95), ok)
	m.setN("client.latency_p99_ms", percentile(loaded.latMs, 0.99), ok)
	if rateOff > 0 {
		m.set("client.trace_overhead_pct", 100*(rateOff-rateOn)/rateOff)
	}

	cpu := (loaded.after.cpu - loaded.before.cpu).Seconds()
	if cpu > 0 {
		m.set("process.gc_cpu_frac", (loaded.after.gcCPU-loaded.before.gcCPU)/cpu)
	}
	m.set("process.gc_cycles", float64(loaded.after.numGC-loaded.before.numGC))
	m.set("process.mallocs_per_op", float64(loaded.after.mallocs-loaded.before.mallocs)/float64(ok))
	m.set("process.steal_pct", rec.StealPct)
	if dev, ok := simMetrics(sp, m, loaded, "sim.ms_per_op", "sim.busy_ms_per_op"); ok {
		m.set("sim.paper_abs_dev_pct", math.Abs(dev))
		m.set("sim_paper_dev_pct", dev)
	}

	if err := w.layers(m, loaded, lad); err != nil {
		return fmt.Errorf("%s: layer measurements: %w", sp.name, err)
	}
	m.set("process.peak_rss_mb", float64(snapProc().maxRSSKB)/1024)

	rec.Spans = tr.count()
	if o.traceOut != "" {
		if err := tr.writeTo(o.traceOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// mergeWindows folds slice b into a: one loaded phase made of slices.
func mergeWindows(a, b *windowResult) *windowResult {
	if a == nil {
		return b
	}
	a.latMs = append(a.latMs, b.latMs...)
	a.simNanos = append(a.simNanos, b.simNanos...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.errs = append(a.errs, b.errs...)
	a.after, a.engAfter = b.after, b.engAfter
	return a
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
