package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/rlwe"
	"repro/internal/sampler"
	"repro/internal/sched"
)

const (
	ckksTenants = 4
	ckksWarmup  = 4
	ckksJobOps  = 8   // 3× Rotate, 3× Add, 2× Mul+rescale
	ckksMaxAbs  = 0.1 // slot magnitudes: a rotation-sum of 8 stays below 1
	// ckksSlotTol bounds the set-up check of the software results against
	// the cleartext. A single rotation at ckks.PaperConfig is off by 8e-5 to
	// 1.2e-3 depending on the key (30 seeds), so the 1e-3 a fresh Mul would
	// allow fails two seeds in thirty; a wrong result is off by ~0.1.
	ckksSlotTol  = 1e-2
	ckksSumSlots = 8
)

var ckksRotations = []int{1, 2, 4}

// ckksInputs is what ckks_chain derives from the seed: the slot vectors, the
// order jobs walk the pool in and the order tenants take turns in.
type ckksInputs struct {
	slots       [][]float64
	order       []int
	tenantOrder []int
}

func genCKKSInputs(seed uint64, slots int) ckksInputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := ckksInputs{}
	for i := 0; i < poolPairs; i++ {
		v := make([]float64, slots)
		for j := range v {
			v[j] = ckksMaxAbs * (2*rng.Float64() - 1)
		}
		in.slots = append(in.slots, v)
	}
	in.order = make([]int, orderLen)
	for i := range in.order {
		in.order[i] = rng.Intn(poolPairs)
	}
	perm := rng.Perm(ckksTenants)
	in.tenantOrder = make([]int, orderLen)
	for i := range in.tenantOrder {
		in.tenantOrder[i] = perm[i%ckksTenants]
	}
	return in
}

// ckksEntry is one pool entry: a fresh ciphertext and the result of each of
// the job's eight operations as the software evaluator computes them.
type ckksEntry struct {
	x    *ckks.Ciphertext
	want [ckksJobOps]*ckks.Ciphertext
}

// ckksOps is one way of executing the three CKKS operations: over the wire,
// through the engine, on the accelerator, on the scheduler, or in software.
// Each returns the result and the simulated time the executor reports.
type ckksOps struct {
	rotate func(x *ckks.Ciphertext, r int) (*ckks.Ciphertext, uint64, error)
	add    func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error)
	mul    func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) // relinearized and rescaled
}

// runJob executes the job on x — a rotation-sum over eight slots, then its
// square and cube — and hands every intermediate to visit, in order.
func runJob(ops ckksOps, x *ckks.Ciphertext, visit func(k int, ct *ckks.Ciphertext) error) (sim uint64, err error) {
	k := 0
	step := func(ct *ckks.Ciphertext, ns uint64, err error) (*ckks.Ciphertext, error) {
		if err != nil {
			return nil, err
		}
		sim += ns
		err = visit(k, ct)
		k++
		return ct, err
	}
	t := x
	for _, r := range ckksRotations {
		rot, err := step(ops.rotate(t, r))
		if err != nil {
			return 0, err
		}
		if t, err = step(ops.add(t, rot)); err != nil {
			return 0, err
		}
	}
	sq, err := step(ops.mul(t, t))
	if err != nil {
		return 0, err
	}
	// t is one level above sq: the executor aligns the levels.
	if _, err = step(ops.mul(sq, t)); err != nil {
		return 0, err
	}
	return sim, nil
}

// ckksChain is the CKKS serving workload: clients straight to a CKKS node
// (the router cannot carry CKKS commands).
type ckksChain struct {
	nclients int
	params   *fv.Params
	cparams  *ckks.Params
	in       ckksInputs
	rk       *ckks.RelinKey
	gks      map[int]*ckks.GaloisKey // by rotation
	pool     []ckksEntry
	maxErr   float64
	tenants  []string
	node     *node
	conns    []*cloud.Client
}

func ckksChainSpec() spec {
	return spec{
		name:       "ckks_chain",
		why:        "CKKS lane at n = 4096: jobs of 8 wire ops (rotation-sum, square, cube) for 4 tenants whose 16 keys contend for 2x8 cache slots: the parallel CKKS stack and the key cache do the work",
		maxClients: 2, warmup: ckksWarmup,
		setup: setupCKKSChain,
	}
}

func setupCKKSChain(seed uint64, clients int) (_ workload, err error) {
	// heserver -paper -ckks: the BFV paper set with the CKKS chain beside it.
	params, err := fv.NewParams(fv.PaperConfig(paperT))
	if err != nil {
		return nil, err
	}
	params.Pool.EnableMetrics()
	cparams, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		return nil, err
	}
	w := &ckksChain{nclients: clients, params: params, cparams: cparams, gks: map[int]*ckks.GaloisKey{},
		in: genCKKSInputs(seed, cparams.Slots())}
	for i := 0; i < ckksTenants; i++ {
		w.tenants = append(w.tenants, fmt.Sprintf("tenant-%d", i))
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	kg := ckks.NewKeyGenerator(cparams, sampler.NewPRNG(seed))
	sk, pk, rk := kg.GenKeys()
	w.rk = rk
	for _, r := range ckksRotations {
		w.gks[r] = kg.GenGaloisKey(sk, cparams.GaloisElementForRotation(r))
	}
	if err = w.buildPool(sk, pk, seed); err != nil {
		return nil, err
	}

	if w.node, err = startNode("node-0", params, cparams, 2); err != nil {
		return nil, err
	}
	// Every tenant registers the same key material under its own name, as
	// heserver -tenants does: the cache keys on (tenant, key), so four
	// tenants are sixteen keys whatever the bytes are.
	for _, tn := range w.tenants {
		w.node.eng.SetCKKSRelinKey(tn, rk)
		for _, gk := range w.gks {
			w.node.eng.SetCKKSGaloisKey(tn, gk)
		}
	}
	for c := 0; c < clients; c++ {
		conn, err := cloud.Dial(w.node.addr, params)
		if err != nil {
			return nil, fmt.Errorf("dial node: %w", err)
		}
		conn.EnableCKKS(cparams)
		w.conns = append(w.conns, conn)
	}
	return w, nil
}

// software executes the operations on the pure-software evaluator, aligning
// levels the way the engine does.
func (w *ckksChain) software() ckksOps {
	ev := ckks.NewEvaluator(w.cparams)
	return ckksOps{
		rotate: func(x *ckks.Ciphertext, r int) (*ckks.Ciphertext, uint64, error) {
			return ev.Rotate(x, r, w.gks[r]), 0, nil
		},
		add: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			a, b = alignCKKS(ev, a, b)
			return ev.Add(a, b), 0, nil
		},
		mul: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			a, b = alignCKKS(ev, a, b)
			return ev.Rescale(ev.Mul(a, b, w.rk)), 0, nil
		},
	}
}

func alignCKKS(ev *ckks.Evaluator, a, b *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext) {
	if a.Level() > b.Level() {
		a = ev.DropLevel(a, b.Level())
	} else if b.Level() > a.Level() {
		b = ev.DropLevel(b, a.Level())
	}
	return a, b
}

// buildPool encrypts the seeded slot vectors, runs the job in software to
// get every expected intermediate, and checks the final one by decryption
// against the same chain computed on the cleartext slots.
func (w *ckksChain) buildPool(sk *ckks.SecretKey, pk *ckks.PublicKey, seed uint64) error {
	p := w.cparams
	encoder := ckks.NewEncoder(p)
	enc := ckks.NewEncryptor(p, pk, sampler.NewPRNG(seed^keySeedSalt))
	dec := ckks.NewDecryptor(p, sk)
	sw := w.software()
	for i, slots := range w.in.slots {
		pt, err := encoder.Encode(slots, p.MaxLevel(), p.DefaultScale())
		if err != nil {
			return err
		}
		e := ckksEntry{x: enc.Encrypt(pt)}
		if _, err := runJob(sw, e.x, func(k int, ct *ckks.Ciphertext) error {
			e.want[k] = ct
			return nil
		}); err != nil {
			return err
		}
		got := encoder.Decode(dec.Decrypt(e.want[ckksJobOps-1]))
		for j := range slots {
			var sum float64
			for d := 0; d < ckksSumSlots; d++ {
				sum += slots[(j+d)%len(slots)]
			}
			w.maxErr = math.Max(w.maxErr, math.Abs(got[j]-sum*sum*sum))
		}
		if w.maxErr > ckksSlotTol {
			return fmt.Errorf("pool entry %d: the software chain is off the cleartext chain by %g (tolerance %g)", i, w.maxErr, ckksSlotTol)
		}
		w.pool = append(w.pool, e)
	}
	return nil
}

func (w *ckksChain) clients() int { return len(w.conns) }

func (w *ckksChain) engines() []*engine.Engine { return []*engine.Engine{w.node.eng} }

func (w *ckksChain) at(i int) (ckksEntry, string) {
	return w.pool[w.in.order[i%orderLen]], w.tenants[w.in.tenantOrder[i%orderLen]]
}

// wire executes the operations as requests on conn, for tenant.
func (w *ckksChain) wire(ctx context.Context, conn *cloud.Client, tenant string, rec *recorder, root *openSpan, id uint64) ckksOps {
	do := func(req *cloud.Request) (*ckks.Ciphertext, uint64, error) {
		req.Tenant = tenant
		sp := rec.begin("cloud.Client.Do", root, id)
		resp, err := conn.Do(ctx, req)
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		return resp.CKKSResult, resp.ComputeNanos, nil
	}
	return ckksOps{
		rotate: func(x *ckks.Ciphertext, r int) (*ckks.Ciphertext, uint64, error) {
			return do(&cloud.Request{Cmd: cloud.CmdCKKSRotate, CA: x, R: int32(r)})
		},
		add: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			return do(&cloud.Request{Cmd: cloud.CmdCKKSAdd, CA: a, CB: b})
		},
		mul: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			return do(&cloud.Request{Cmd: cloud.CmdCKKSMul, CA: a, CB: b})
		},
	}
}

// expect returns the visitor that checks every intermediate of a job bit for
// bit against the software evaluator's.
func expect(e ckksEntry) func(int, *ckks.Ciphertext) error {
	return func(k int, ct *ckks.Ciphertext) error {
		if ct == nil || !ct.Equal(e.want[k]) {
			return fmt.Errorf("job op %d: %w", k, errWrong)
		}
		return nil
	}
}

func (w *ckksChain) request(ctx context.Context, rec *recorder, c, seq int) (uint64, error) {
	id := uint64(c)<<32 | uint64(seq)
	e, tenant := w.at(seq*w.nclients + c)
	root := rec.begin("client.request", nil, id)
	defer root.end()
	return runJob(w.wire(ctx, w.conns[c], tenant, rec, root, id), e.x, expect(e))
}

func (w *ckksChain) ladder() ([]rung, func(), error) {
	ctx := context.Background()
	eng := w.node.eng
	acc, err := core.NewCKKS(w.cparams, 1)
	if err != nil {
		return nil, nil, err
	}
	sch := sched.NewCKKS(w.cparams, hwsim.DefaultTiming())
	ev := ckks.NewEvaluator(w.cparams)
	sw := w.software()

	viaEngine := func(tenant string) ckksOps {
		submit := func(op engine.Op) (*ckks.Ciphertext, uint64, error) {
			op.Tenant = tenant
			res, err := eng.Submit(ctx, op)
			if err != nil {
				return nil, 0, err
			}
			return res.CCt, 0, nil
		}
		return ckksOps{
			rotate: func(x *ckks.Ciphertext, r int) (*ckks.Ciphertext, uint64, error) {
				return submit(engine.Op{Kind: engine.OpCKKSRotate, CA: x, R: r})
			},
			add: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
				return submit(engine.Op{Kind: engine.OpCKKSAdd, CA: a, CB: b})
			},
			mul: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
				return submit(engine.Op{Kind: engine.OpCKKSMul, CA: a, CB: b})
			},
		}
	}
	// Below the engine nobody aligns levels, so the rungs do it themselves.
	onAccelerator := ckksOps{
		rotate: func(x *ckks.Ciphertext, r int) (*ckks.Ciphertext, uint64, error) {
			ct, _, err := acc.Rotate(x, r, w.gks[r])
			return ct, 0, err
		},
		add: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			a, b = alignCKKS(ev, a, b)
			ct, _, err := acc.Add(a, b)
			return ct, 0, err
		},
		mul: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			a, b = alignCKKS(ev, a, b)
			ct, _, err := acc.Mul(a, b, w.rk)
			return ct, 0, err
		},
	}
	onScheduler := ckksOps{
		rotate: func(x *ckks.Ciphertext, r int) (*ckks.Ciphertext, uint64, error) {
			ct, _, err := sch.Rotate(x, r, w.gks[r])
			return ct, 0, err
		},
		add: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			a, b = alignCKKS(ev, a, b)
			ct, _, err := sch.Add(a, b)
			return ct, 0, err
		},
		mul: func(a, b *ckks.Ciphertext) (*ckks.Ciphertext, uint64, error) {
			a, b = alignCKKS(ev, a, b)
			ct, _, err := sch.MulRescale(a, b, w.rk)
			return ct, 0, err
		},
	}
	job := func(ops func(tenant string) ckksOps) func(int) error {
		return func(i int) error {
			e, tenant := w.at(i)
			_, err := runJob(ops(tenant), e.x, expect(e))
			return err
		}
	}
	fixed := func(ops ckksOps) func(string) ckksOps { return func(string) ckksOps { return ops } }
	return []rung{
		{"R1 client>node", "cloud.wire_ms", job(func(tenant string) ckksOps {
			return w.wire(ctx, w.conns[0], tenant, nil, nil, 0)
		})},
		{"R2 engine.Submit", "engine.overhead_ms", job(viaEngine)},
		{"R3 core.CKKSAccelerator", "core.overhead_ms", job(fixed(onAccelerator))},
		{"R4 sched.CKKSScheduler on hwsim", "hwsim.model_overhead_ms", job(fixed(onScheduler))},
		{"R5 ckks.Evaluator", "client.ladder_floor_ms", job(fixed(sw))},
	}, func() {}, nil
}

func (w *ckksChain) layers(m metricSet, loaded *windowResult, lad *ladderResult) error {
	engineLayers(m, loaded)
	e := w.pool[0]

	// The wire codec on the job's largest exchange, the first Mul: two
	// top-level operands out, one ciphertext a level down back. req_bytes
	// and resp_bytes are those of that one exchange.
	sum := e.want[5]
	req := &cloud.Request{Cmd: cloud.CmdCKKSMul, Ver: cloud.ProtoV2, ID: 1, Tenant: w.tenants[0], CA: sum, CB: sum}
	resp := &cloud.Response{Ver: cloud.ProtoV2, ID: 1, CKKSResult: e.want[6], ComputeNanos: 1}
	if err := codecLayers(m, opCodec(w.params, w.cparams, req, resp)); err != nil {
		return err
	}

	// The accelerator and the scheduler, one Mul+rescale and one Rotate.
	acc, err := core.NewCKKS(w.cparams, 1)
	if err != nil {
		return err
	}
	ms, err := timeMedianErr(heavyReps, func() error { _, _, err := acc.Mul(sum, sum, w.rk); return err })
	if err != nil {
		return err
	}
	m.setN("core.ckks_mul_ms", ms, heavyReps)
	var rep core.Report
	ms, err = timeMedianErr(heavyReps, func() error {
		var err error
		_, rep, err = acc.Rotate(e.x, 1, w.gks[1])
		return err
	})
	if err != nil {
		return err
	}
	m.setN("core.ckks_rotate_ms", ms, heavyReps)
	m.set("core.send_ms", rep.SendCycles.Seconds()*1e3)
	m.set("core.recv_ms", rep.ReceiveCycles.Seconds()*1e3)

	sch := sched.NewCKKS(w.cparams, hwsim.DefaultTiming())
	if _, _, err := sch.MulRescale(sum, sum, w.rk); err != nil { // builds the level's co-processor
		return err
	}
	sch.ResetStats()
	t0 := time.Now()
	if _, _, err := sch.MulRescale(sum, sum, w.rk); err != nil {
		return err
	}
	hwsimLayers(m, sch.Stats, float64(time.Since(t0))/1e6)

	ckksEvaluatorLayers(m, w.cparams, w.rk, w.gks[1], e.x)
	m.set("ckks.max_slot_err", w.maxErr)
	return ckksSubstrateLayers(m, w.cparams, w.rk, e.x)
}

// ckksEvaluatorLayers times the CKKS software evaluator's public operations
// on a top-level ciphertext; gk is the key for a rotation by one.
func ckksEvaluatorLayers(m metricSet, p *ckks.Params, rk *ckks.RelinKey, gk *ckks.GaloisKey, x *ckks.Ciphertext) {
	ev := ckks.NewEvaluator(p)
	top := p.MaxLevel()
	prod := ckks.NewCiphertext(p, 1, top)
	down := ckks.NewCiphertext(p, 1, top-1)
	rot := ckks.NewCiphertext(p, 1, top)
	mulRescale := func() {
		ev.MulInto(x, x, rk, prod)
		ev.RescaleInto(prod, down)
	}
	mulRescale() // grow the scratch before timing
	m.setN("ckks.mul_rescale_ms", timeMedian(heavyReps, mulRescale), heavyReps)
	m.setN("ckks.rotate_ms", timeMedian(heavyReps, func() { ev.RotateInto(x, 1, gk, rot) }), heavyReps)
	m.setN("ckks.add_us", 1e3*timeMedian(heavyReps, func() { ev.Add(x, x) }), heavyReps)
	m.set("ckks.allocs_per_mul", mallocsPer(heavyReps, mulRescale))
}

// ckksSubstrateLayers times the shared kernels at the CKKS chain's top
// level: one-row NTTs, the hybrid key switch, and the key container.
func ckksSubstrateLayers(m metricSet, p *ckks.Params, rk *ckks.RelinKey, ct *ckks.Ciphertext) error {
	n, top := p.N(), p.MaxLevel()
	m.set("poly.pool_width", float64(p.Pool.Workers()))
	if err := nttLayers(m, p.QMods[0], ct.Els[0].Rows[0].Coeffs); err != nil {
		return err
	}
	ks := rlwe.NewKeySwitcherExt(p.Pool, p.TrKS[top], p.BasisLevel[top], p.KSMods[top], n)
	lk := rk.At(top)
	m.setN("rlwe.keyswitch_ms", timeMedian(heavyReps, func() {
		ks.SumOfProducts(ks.Decompose(ct.Els[1]), lk.Ks0Hat, lk.Ks1Hat)
		ks.InverseSoP()
	}), heavyReps)
	return keyioLayers(m,
		func(b *bytes.Buffer) error { return ckks.WriteRelinKeyV2(b, p, rk) },
		func(data []byte) error { _, _, err := ckks.ReadRelinKey(bytes.NewReader(data)); return err })
}

func (w *ckksChain) close() error {
	var errs []error
	for _, c := range w.conns {
		errs = append(errs, c.Close())
	}
	if w.node != nil {
		errs = append(errs, w.node.stop())
	}
	return errors.Join(errs...)
}
