package main

import (
	"fmt"
	"io"
	"strings"
)

// report prints every metric of the run by name, with its unit and the
// sample count behind it, for a person to read. The driver reads only the
// JSON line that follows.
func report(w io.Writer, sp spec, rec *runRecord) {
	fmt.Fprintf(w, "bench %s: %s\n", sp.name, sp.why)
	if ungated[sp.name] {
		fmt.Fprintln(w, "  not in BENCHMARK.json's workloads: too unsteady on a shared box for the driver's gate (README, Steadiness)")
	}
	fmt.Fprintf(w, "  seed %d, trace %v, %d closed-loop client(s), -seconds %g (window %.1f s, warm-up %d requests/client)\n",
		rec.Seed, rec.Trace, rec.Phases.Clients, rec.Phases.Seconds, rec.Phases.WindowS, rec.Phases.WarmupRequests)
	fmt.Fprintf(w, "  nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n",
		rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.OSArch, rec.Env.Commit)
	fmt.Fprintf(w, "  requests: attempted %d, ok %d, failed %d; machine steal over the window %.2f %%\n",
		rec.Requests.Attempted, rec.Requests.OK, rec.Requests.Failed, rec.StealPct)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}

	section := func(title string, defs []metricDef, all bool) {
		fmt.Fprintf(w, "%s\n", title)
		for _, d := range defs {
			v, ok := rec.Metrics[d.Name]
			if !ok && !all {
				continue
			}
			line := fmt.Sprintf("  %-34s %14.6g %-8s", d.Name, v.Value, d.Unit)
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
				if strings.Contains(d.Name, "_p95_") && !supported(v.N, 0.95) || strings.Contains(d.Name, "_p99_") && !supported(v.N, 0.99) {
					line += " (fewer than ten samples beyond it)"
				}
			}
			if d.Bound > 0 {
				line += fmt.Sprintf(" (%s is better, bound %g%%)", d.Better, 100*d.Bound)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	if !rec.Trace {
		section("end-to-end (host wall clock)", endToEnd, true)
	}
	section("recorded beside them: latency percentiles, the simulated clock (repeats exactly, except sim_busy_ms_per_op) and failures", recorded()[len(endToEnd):], false)
	if rec.Trace {
		section("per-layer (0 = the layer is not on this workload's path)", perLayer, true)
	}
	if lad := rec.Ladder; lad != nil {
		fmt.Fprintf(w, "peel ladder (%d requests per rung, one at a time; shares add to the first median; nested %v)\n", lad.Samples, lad.Nested)
		for k := range lad.Rungs {
			fmt.Fprintf(w, "  %-34s median %10.4f ms   share %10.4f ms -> %s\n", lad.Rungs[k], lad.Medians[k], lad.Shares[k], lad.Layers[k])
		}
		fmt.Fprintf(w, "  %d spans recorded\n", rec.Spans)
	}
}
