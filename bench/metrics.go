package main

import "fmt"

// metricDef is one row of BENCHMARK.json: names_test.go holds the tables
// below and that file to each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Units name the clock: "ms"/"us"/"s" are host wall time, "sim_ms" is
// simulated co-processor time (cycles at 200 MHz), "cycles" are simulated
// cycles. A simulated figure repeats exactly; a host figure never does.
const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, on every workload. The bound
// is the share of the parent's median by which the metric may get worse.
// The host-clock bounds are as wide as the contract allows because the box
// is that noisy: its processors run at full speed or at about 0.6 of it for
// seconds to minutes at a time, with no steal reported, and ten runs of the
// same code spread 2-4 % in a quiet quarter of an hour and 10-18 % in a busy
// one (README, "Steadiness"). alloc_kb_per_op repeats to a few hundredths of
// a percent and is the sharp end-to-end gate. The load is a closed loop, so
// the rate of completed work is the end-to-end speed; the latency percentiles
// are recorded beside these (see beside) and carried per layer.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_ops_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_kb_per_op", "KB", lower, 0.02},
}

// exact are the deterministic companions of the end-to-end metrics: they are
// in every result file and in the printed report, and -compare requires them
// to be identical between two runs of the same code. They are not in
// BENCHMARK.json's end_to_end list because its contract wants metrics that
// are never 0, apply to every workload and differ from run to run; the
// per-layer list carries them as sim.* instead.
var exact = []metricDef{
	{"fail_frac", "ratio", lower, 0},
	{"sim_ms_per_op", "sim_ms", lower, 0},
	{"sim_paper_dev_pct", "%", lower, 0},
}

// beside are recorded with a bound beside the end-to-end metrics, and
// -compare judges them, but the driver does not gate on them. A request runs
// at one of the box's two speeds, so its latency has two modes, and the
// median jumps from one to the other as the share of slow requests crosses a
// half: ten runs of the same code spread 31 % on latency_p50_ms where the
// throughput, a mean, spread 18 % (mul_paper), and 36 % on latency_p95_ms
// (ckks_chain, on the driver's box). Which worker loads a key depends on
// arrival order, so the simulated busy time repeats closely, not exactly
// (and sw_eval has none).
var (
	latencyP50 = metricDef{"latency_p50_ms", "ms", lower, 0.25}
	latencyP95 = metricDef{"latency_p95_ms", "ms", lower, 0.25}
	simBusy    = metricDef{"sim_busy_ms_per_op", "sim_ms", lower, 0.05}
	beside     = []metricDef{latencyP50, latencyP95, simBusy}
)

// recorded lists what an untraced run records and -compare judges: the
// end-to-end metrics and their companions.
func recorded() []metricDef {
	defs := append([]metricDef{}, endToEnd...)
	defs = append(defs, beside...)
	return append(defs, exact...)
}

// perLayer is measured on the traced run only, from outside each layer.
// A metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"client.unloaded_ms", "ms", lower, 0},
	{"client.load_inflation", "ratio", lower, 0},
	{"client.latency_p50_ms", "ms", lower, 0},
	{"client.latency_p95_ms", "ms", lower, 0},
	{"client.latency_p99_ms", "ms", lower, 0},
	{"client.trace_overhead_pct", "%", lower, 0},
	{"client.ladder_floor_ms", "ms", lower, 0},
	{"client.ladder_nested", "count", higher, 0},

	{"cluster.hop_ms", "ms", lower, 0},
	{"cluster.route_us", "us", lower, 0},
	{"cluster.requests", "count", higher, 0},
	{"cluster.retries", "count", lower, 0},
	{"cluster.reroutes", "count", lower, 0},
	{"cluster.errors", "count", lower, 0},
	{"cluster.backend_latency_p50_us", "us", lower, 0},
	{"cluster.node_share_max", "ratio", lower, 0},

	{"cloud.wire_ms", "ms", lower, 0},
	{"cloud.encode_req_us", "us", lower, 0},
	{"cloud.decode_req_us", "us", lower, 0},
	{"cloud.encode_resp_us", "us", lower, 0},
	{"cloud.decode_resp_us", "us", lower, 0},
	{"cloud.req_bytes", "B", lower, 0},
	{"cloud.resp_bytes", "B", lower, 0},
	{"cloud.mux_frame_us", "us", lower, 0},

	{"engine.overhead_ms", "ms", lower, 0},
	{"engine.queue_wait_p50_us", "us", lower, 0},
	{"engine.queue_wait_p99_us", "us", lower, 0},
	{"engine.batch_assembly_p50_us", "us", lower, 0},
	{"engine.exec_p50_us", "us", lower, 0},
	{"engine.avg_batch", "count", higher, 0},
	{"engine.key_hit_ratio", "ratio", higher, 0},
	{"engine.key_loads", "count", lower, 0},
	{"engine.key_evictions", "count", lower, 0},
	{"engine.key_load_ms_per_op", "sim_ms", lower, 0},
	{"engine.sim_ops_per_s", "1/sim_s", higher, 0},
	{"engine.worker_sim_balance", "ratio", higher, 0},
	{"engine.rejected", "count", lower, 0},
	{"engine.expired", "count", lower, 0},
	{"engine.failed", "count", lower, 0},
	{"engine.program_makespan_ms", "sim_ms", lower, 0},
	{"engine.program_serial_ms", "sim_ms", lower, 0},
	{"engine.program_parallel_speedup", "ratio", higher, 0},
	{"engine.program_host_ms_per_node", "ms", lower, 0},
	{"engine.program_key_loads", "count", lower, 0},

	{"program.encode_us", "us", lower, 0},
	{"program.decode_us", "us", lower, 0},
	{"program.analyze_us", "us", lower, 0},
	{"program.bytes", "B", lower, 0},
	{"program.nodes", "count", lower, 0},
	{"program.depth", "count", lower, 0},

	{"core.overhead_ms", "ms", lower, 0},
	{"core.send_ms", "sim_ms", lower, 0},
	{"core.recv_ms", "sim_ms", lower, 0},
	{"core.ckks_mul_ms", "ms", lower, 0},
	{"core.ckks_rotate_ms", "ms", lower, 0},

	{"sched.instr_per_op", "count", lower, 0},
	{"sched.overlap_speedup", "ratio", higher, 0},

	{"hwsim.host_ms_per_op", "ms", lower, 0},
	{"hwsim.model_overhead_ms", "ms", lower, 0},
	{"hwsim.host_ns_per_sim_cycle", "ns", lower, 0},
	{"hwsim.transfer_ms", "sim_ms", lower, 0},
	{"hwsim.cycles.ntt", "cycles", lower, 0},
	{"hwsim.cycles.intt", "cycles", lower, 0},
	{"hwsim.cycles.cmul", "cycles", lower, 0},
	{"hwsim.cycles.cadd", "cycles", lower, 0},
	{"hwsim.cycles.rearr", "cycles", lower, 0},
	{"hwsim.cycles.decomp", "cycles", lower, 0},
	{"hwsim.cycles.lift", "cycles", lower, 0},
	{"hwsim.cycles.scale", "cycles", lower, 0},
	{"hwsim.cycles.rescale", "cycles", lower, 0},
	{"hwsim.calls.ntt", "count", lower, 0},
	{"hwsim.calls.intt", "count", lower, 0},
	{"hwsim.calls.lift", "count", lower, 0},
	{"hwsim.calls.scale", "count", lower, 0},

	{"fv.mul_relin_ms", "ms", lower, 0},
	{"fv.mul_norelin_ms", "ms", lower, 0},
	{"fv.relin_ms", "ms", lower, 0},
	{"fv.rotate_ms", "ms", lower, 0},
	{"fv.add_us", "us", lower, 0},
	{"fv.allocs_per_mul", "count", lower, 0},

	{"ckks.mul_rescale_ms", "ms", lower, 0},
	{"ckks.rotate_ms", "ms", lower, 0},
	{"ckks.add_us", "us", lower, 0},
	{"ckks.allocs_per_mul", "count", lower, 0},
	{"ckks.max_slot_err", "abs", lower, 0},

	{"rlwe.keyswitch_ms", "ms", lower, 0},
	{"rns.lift_us", "us", lower, 0},
	{"rns.scale_us", "us", lower, 0},
	{"poly.ntt_forward_us", "us", lower, 0},
	{"poly.ntt_inverse_us", "us", lower, 0},
	{"poly.pool_width", "count", higher, 0},
	{"keyio.relin_key_write_ms", "ms", lower, 0},
	{"keyio.relin_key_read_ms", "ms", lower, 0},
	{"keyio.relin_key_bytes", "B", lower, 0},

	{"process.gc_cpu_frac", "ratio", lower, 0},
	{"process.gc_cycles", "count", lower, 0},
	{"process.mallocs_per_op", "count", lower, 0},
	{"process.peak_rss_mb", "MB", lower, 0},
	{"process.steal_pct", "%", lower, 0},

	{"sim.ms_per_op", "sim_ms", lower, 0},
	{"sim.busy_ms_per_op", "sim_ms", lower, 0},
	{"sim.paper_abs_dev_pct", "%", lower, 0},
}

// metricValue is one measured number. N is the sample count behind a
// percentile or median (0 when the value is a count or a ratio of totals).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics by name. set refuses a name no table
// defines, so an emitted metric cannot drift from BENCHMARK.json unnoticed.
type metricSet map[string]metricValue

var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, beside, exact, perLayer} {
		for _, d := range defs {
			u[d.Name] = d.Unit
		}
	}
	return u
}()

func (m metricSet) set(name string, v float64) { m.setN(name, v, 0) }

func (m metricSet) setN(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is in no table of metrics.go", name))
	}
	m[name] = metricValue{Value: v, Unit: unit, N: n}
}

// pick returns the metrics of defs, in table order; a metric the run did not
// measure reads 0 (its layer is not on this workload's path).
func (m metricSet) pick(defs []metricDef) metricSet {
	out := metricSet{}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			v = metricValue{Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}
