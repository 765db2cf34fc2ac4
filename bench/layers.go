package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rlwe"
	"repro/internal/sched"
)

// This file times calls into the public functions of single layers and
// reads their public Stats(). Nothing here reaches inside a layer: spans
// inside the program are a later change.

// timeMedian runs fn reps times and returns the median duration in ms.
func timeMedian(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0)) / 1e6
	}
	return median(d)
}

// timeMedianErr is timeMedian for calls that can fail; the first error ends
// the measurement.
func timeMedianErr(reps int, fn func() error) (float64, error) {
	var first error
	ms := timeMedian(reps, func() {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	})
	return ms, first
}

// mallocsPer returns the heap allocations one call of fn makes, averaged
// over reps calls.
func mallocsPer(reps int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps)
}

const (
	heavyReps = 15  // calls of a millisecond or more
	lightReps = 200 // calls of microseconds
)

// engineLayers reads the engines' Stats() over the loaded phase. Counters
// are differences over the phase; the wait and execution histograms cannot
// be reset from outside, so their quantiles also cover the warm-up.
func engineLayers(m metricSet, loaded *windowResult) {
	var d struct {
		rejected, expired, failed, completed, programs uint64
		batches, batchedOps, loads, hits, evictions    uint64
	}
	var busiest, idlest uint64
	idlest = ^uint64(0)
	var hist engine.Stats
	for i, a := range loaded.engAfter {
		b := loaded.engBefore[i]
		d.rejected += a.Rejected - b.Rejected
		d.expired += a.Expired - b.Expired
		d.failed += a.Failed - b.Failed
		d.completed += a.Completed - b.Completed
		d.programs += a.Programs - b.Programs
		d.batches += a.Batches - b.Batches
		d.batchedOps += a.BatchedOps - b.BatchedOps
		d.loads += a.KeyLoads - b.KeyLoads
		d.hits += a.KeyHits - b.KeyHits
		d.evictions += a.KeyEvictions - b.KeyEvictions
		for w, ws := range a.PerWorker {
			c := ws.SimCycles - b.PerWorker[w].SimCycles
			busiest, idlest = max(busiest, c), min(idlest, c)
		}
		if a.ExecTime.Count >= hist.ExecTime.Count {
			hist = a
		}
	}
	m.set("engine.rejected", float64(d.rejected))
	m.set("engine.expired", float64(d.expired))
	m.set("engine.failed", float64(d.failed))
	m.set("engine.key_loads", float64(d.loads))
	m.set("engine.key_evictions", float64(d.evictions))
	if d.batches > 0 {
		m.set("engine.avg_batch", float64(d.batchedOps)/float64(d.batches))
	}
	if d.hits+d.loads > 0 {
		m.set("engine.key_hit_ratio", float64(d.hits)/float64(d.hits+d.loads))
	}
	m.setN("engine.queue_wait_p50_us", hist.QueueWait.P50Micros, int(hist.QueueWait.Count))
	m.setN("engine.queue_wait_p99_us", hist.QueueWait.P99Micros, int(hist.QueueWait.Count))
	m.setN("engine.batch_assembly_p50_us", hist.BatchAssembly.P50Micros, int(hist.BatchAssembly.Count))
	m.setN("engine.exec_p50_us", hist.ExecTime.P50Micros, int(hist.ExecTime.Count))
	if busiest > 0 {
		// The paper's rate: completed operations over the simulated time of
		// the busiest co-processor (400 Mult/s on two of them).
		m.set("engine.sim_ops_per_s", float64(d.completed+d.programs)/hwsim.Cycles(busiest).Seconds())
		m.set("engine.worker_sim_balance", float64(idlest)/float64(busiest))
	}
	// What the workers were busy with beyond the compute the responses
	// report is evaluation-key streaming.
	var compute float64
	for _, ns := range loaded.simNanos {
		compute += ns
	}
	if stream := cyclesToMs(loaded.simBusyCycles()) - compute/1e6; d.programs == 0 && stream > 0 && loaded.ok() > 0 {
		m.set("engine.key_load_ms_per_op", stream/float64(loaded.ok()))
	}
}

// clusterLayers reads the router's Stats() (counters since boot: the warm-up
// is included) and times its routing decision.
func clusterLayers(m metricSet, tier *routerTier, tenants []string, loaded *windowResult) {
	st := tier.router.Stats()
	m.set("cluster.requests", float64(st.Obs.Counters["cluster_requests"]))
	m.set("cluster.retries", float64(st.Obs.Counters["cluster_retries"]))
	m.set("cluster.reroutes", float64(st.Obs.Counters["cluster_reroutes"]))
	m.set("cluster.errors", float64(st.Obs.Counters["cluster_errors"]))
	var busiest uint64
	for _, id := range st.Members {
		if h := st.Obs.Histograms["cluster_backend_latency:"+id]; h.Count >= busiest {
			busiest = h.Count
			m.setN("cluster.backend_latency_p50_us", h.P50Micros, int(h.Count))
		}
	}
	var total, most uint64
	for i, a := range loaded.engAfter {
		done := a.Completed - loaded.engBefore[i].Completed
		total += done
		most = max(most, done)
	}
	if total > 0 {
		m.set("cluster.node_share_max", float64(most)/float64(total))
	}
	i := 0
	m.setN("cluster.route_us", 1e3*timeMedian(lightReps, func() {
		tier.router.Candidates(tenants[i%len(tenants)])
		i++
	}), lightReps)
}

// codec is the wire codec of one request/response pair, as four calls on
// in-memory buffers.
type codec struct {
	encodeReq  func(*bytes.Buffer) error
	decodeReq  func([]byte) error
	encodeResp func(*bytes.Buffer) error
	decodeResp func([]byte) error
}

// opCodec is the codec of an op-at-a-time request in v2 framing; cparams is
// set for a CKKS request.
func opCodec(params *fv.Params, cparams *ckks.Params, req *cloud.Request, resp *cloud.Response) codec {
	return codec{
		encodeReq: func(b *bytes.Buffer) error { return cloud.WriteRequest(b, params, req) },
		decodeReq: func(data []byte) error {
			_, err := cloud.ReadRequestCKKS(bytes.NewReader(data), params, cparams)
			return err
		},
		encodeResp: func(b *bytes.Buffer) error { return cloud.WriteResponse(b, params, resp) },
		decodeResp: func(data []byte) error {
			var err error
			if resp.CKKSResult != nil {
				_, err = cloud.ReadCKKSResponseV(bytes.NewReader(data), cparams, resp.Ver)
			} else {
				_, err = cloud.ReadResponseV(bytes.NewReader(data), params, resp.Ver)
			}
			return err
		},
	}
}

// codecLayers times the wire codec on in-memory buffers: one request and one
// response of the workload, plus the mux frame around the request.
func codecLayers(m metricSet, c codec) error {
	var reqBuf, respBuf, frame bytes.Buffer
	steps := []struct {
		metric string
		call   func() error
	}{
		{"cloud.encode_req_us", func() error { reqBuf.Reset(); return c.encodeReq(&reqBuf) }},
		{"cloud.decode_req_us", func() error { return c.decodeReq(reqBuf.Bytes()) }},
		{"cloud.encode_resp_us", func() error { respBuf.Reset(); return c.encodeResp(&respBuf) }},
		{"cloud.decode_resp_us", func() error { return c.decodeResp(respBuf.Bytes()) }},
		{"cloud.mux_frame_us", func() error {
			// Wrap the request in a mux frame and unwrap it again.
			frame.Reset()
			if err := cloud.WriteMuxFrame(&frame, cloud.MuxFrameRequest, 1, reqBuf.Bytes()); err != nil {
				return err
			}
			_, err := cloud.DecodeMuxFrame(bytes.NewReader(frame.Bytes()), reqBuf.Len())
			return err
		}},
	}
	for _, st := range steps {
		ms, err := timeMedianErr(heavyReps, st.call)
		if err != nil {
			return fmt.Errorf("%s: %w", st.metric, err)
		}
		m.setN(st.metric, 1e3*ms, heavyReps)
	}
	m.set("cloud.req_bytes", float64(reqBuf.Len()))
	m.set("cloud.resp_bytes", float64(respBuf.Len()))
	return nil
}

// hwsimLayers reports one operation's simulated instruction mix from the
// co-processor's Stats() (reset before the operation by the caller) and the
// host time the simulator needed per simulated cycle.
func hwsimLayers(m metricSet, st *hwsim.Stats, hostMs float64) {
	instr := 0
	for _, s := range st.PerOp {
		instr += s.Calls
	}
	for _, o := range []struct {
		op    hwsim.Op
		name  string
		calls bool // the call count is a metric too
	}{
		{hwsim.OpNTT, "ntt", true}, {hwsim.OpINTT, "intt", true}, {hwsim.OpLift, "lift", true}, {hwsim.OpScale, "scale", true},
		{hwsim.OpCMul, "cmul", false}, {hwsim.OpCAdd, "cadd", false}, {hwsim.OpRearr, "rearr", false},
		{hwsim.OpDecomp, "decomp", false}, {hwsim.OpRescale, "rescale", false},
	} {
		s, ok := st.PerOp[o.op]
		if !ok {
			continue
		}
		m.set("hwsim.cycles."+o.name, float64(s.TotalCycles))
		if o.calls {
			m.set("hwsim.calls."+o.name, float64(s.Calls))
		}
	}
	m.set("sched.instr_per_op", float64(instr))
	m.set("hwsim.transfer_ms", st.TransferSeconds*1e3)
	if st.Total > 0 {
		m.set("hwsim.host_ns_per_sim_cycle", hostMs*1e6/float64(st.Total))
	}
}

// bfvHardwareLayers runs one BFV operation on a bare co-processor under a
// recording scheduler (instruction mix, overlap analysis) and once through
// core.Accelerator (transfer accounting).
func bfvHardwareLayers(m metricSet, params *fv.Params, rk *fv.RelinKey, p fvPair, mul bool) error {
	cop, err := newCoprocessor(params)
	if err != nil {
		return err
	}
	s := sched.New(params, cop)
	s.Record = true
	run := func() error {
		if mul {
			_, _, err := s.Mul(p.a, p.b, rk)
			return err
		}
		_, _, err := s.Add(p.a, p.b)
		return err
	}
	if err := run(); err != nil { // first call grows the scheduler's buffers
		return err
	}
	cop.ResetStats()
	s.Trace = s.Trace[:0]
	t0 := time.Now()
	if err := run(); err != nil {
		return err
	}
	hwsimLayers(m, cop.Stats, float64(time.Since(t0))/1e6)
	m.set("sched.overlap_speedup", sched.AnalyzeOverlap(s.Trace).Speedup())

	acc, err := core.New(params, hwsim.VariantHPS, 1)
	if err != nil {
		return err
	}
	_, rep, err := acc.Add(p.a, p.b)
	if err != nil {
		return err
	}
	m.set("core.send_ms", rep.SendCycles.Seconds()*1e3)
	m.set("core.recv_ms", rep.ReceiveCycles.Seconds()*1e3)
	return nil
}

// fvLayers times the BFV software evaluator's public operations.
func fvLayers(m metricSet, params *fv.Params, rk *fv.RelinKey, p fvPair) {
	ev := fv.NewEvaluator(params)
	out := fv.NewCiphertext(params, 2)
	deg2 := fv.NewCiphertext(params, 3)
	ev.MulInto(p.a, p.b, rk, out) // grow the scratch before timing
	m.setN("fv.mul_relin_ms", timeMedian(heavyReps, func() { ev.MulInto(p.a, p.b, rk, out) }), heavyReps)
	m.setN("fv.mul_norelin_ms", timeMedian(heavyReps, func() { ev.MulNoRelinInto(p.a, p.b, deg2) }), heavyReps)
	m.setN("fv.relin_ms", timeMedian(heavyReps, func() { ev.RelinearizeInto(deg2, rk, out) }), heavyReps)
	m.setN("fv.add_us", 1e3*timeMedian(heavyReps, func() { ev.Add(p.a, p.b) }), heavyReps)
	m.set("fv.allocs_per_mul", mallocsPer(heavyReps, func() { ev.MulInto(p.a, p.b, rk, out) }))
}

// fvRotateLayer times a BFV rotation; only workloads that hold a Galois key
// call it.
func fvRotateLayer(m metricSet, params *fv.Params, gk *fv.GaloisKey, ct *fv.Ciphertext) {
	ev := fv.NewEvaluator(params)
	ev.ApplyGalois(ct, gk)
	m.setN("fv.rotate_ms", timeMedian(heavyReps, func() { ev.ApplyGalois(ct, gk) }), heavyReps)
}

// nttLayers times one-row forward and inverse NTTs over mod on a copy of row.
func nttLayers(m metricSet, mod ring.Modulus, row []uint64) error {
	tab, err := poly.NewNTTTable(mod, len(row))
	if err != nil {
		return err
	}
	row = append([]uint64(nil), row...)
	m.setN("poly.ntt_forward_us", 1e3*timeMedian(lightReps, func() { tab.Forward(row) }), lightReps)
	m.setN("poly.ntt_inverse_us", 1e3*timeMedian(lightReps, func() { tab.Inverse(row) }), lightReps)
	return nil
}

// keyioLayers times writing a relinearization key into its checksummed
// container and reading it back.
func keyioLayers(m metricSet, write func(*bytes.Buffer) error, read func([]byte) error) error {
	var buf bytes.Buffer
	ms, err := timeMedianErr(heavyReps, func() error { buf.Reset(); return write(&buf) })
	if err != nil {
		return err
	}
	m.setN("keyio.relin_key_write_ms", ms, heavyReps)
	m.set("keyio.relin_key_bytes", float64(buf.Len()))
	if ms, err = timeMedianErr(heavyReps, func() error { return read(buf.Bytes()) }); err != nil {
		return err
	}
	m.setN("keyio.relin_key_read_ms", ms, heavyReps)
	return nil
}

// substrateLayers times the kernels both schemes and the functional hardware
// model share, at a BFV set: one-row NTTs, the HPS lift and scale, the gadget
// key switch, and the key container.
func substrateLayers(m metricSet, params *fv.Params, rk *fv.RelinKey, ct *fv.Ciphertext) error {
	n := params.N()
	m.set("poly.pool_width", float64(params.Pool.Workers()))
	if err := nttLayers(m, params.QMods[0], ct.Els[0].Rows[0].Coeffs); err != nil {
		return err
	}

	full := poly.NewRNSPoly(params.AllMods, n)
	for i := range params.QMods {
		copy(full.Rows[i].Coeffs, ct.Els[0].Rows[i].Coeffs)
	}
	pRows := full.Rows[len(params.QMods):]
	m.setN("rns.lift_us", 1e3*timeMedian(heavyReps, func() { params.Lifter.LiftTargetsInto(ct.Els[0], pRows) }), heavyReps)
	scaled := poly.NewRNSPoly(params.QMods, n)
	m.setN("rns.scale_us", 1e3*timeMedian(heavyReps, func() { params.Scaler.ScalePolyInto(full, scaled) }), heavyReps)

	ks := rlwe.NewKeySwitcher(params.Pool, params.TrQ, params.QBasis, n)
	m.setN("rlwe.keyswitch_ms", timeMedian(heavyReps, func() {
		ks.SumOfProducts(ks.Decompose(ct.Els[1]), rk.Rlk0Hat, rk.Rlk1Hat)
		ks.InverseSoP()
	}), heavyReps)

	return keyioLayers(m,
		func(b *bytes.Buffer) error { return fv.WriteRelinKeyV2(b, params, rk) },
		func(data []byte) error { _, _, err := fv.ReadRelinKey(bytes.NewReader(data)); return err })
}
