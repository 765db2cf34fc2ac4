package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
	"repro/internal/sched"
)

const (
	poolPairs   = 8     // pre-encrypted operand pairs per workload
	orderLen    = 256   // length of the seeded request order
	plainTerms  = 8     // non-zero plaintext coefficients per operand
	paperT      = 65537 // heserver's default -t
	addTenants  = 32    // tenants add_routed cycles through
	paperMulMs  = 4.458 // Table I, "Mult in HW"
	paperAddMs  = 0.026 // Table I, "Add in HW"
	mulWarmup   = 12
	addWarmup   = 48
	keySeedSalt = 0x9e3779b97f4a7c15 // separates the encryption stream from the key stream
)

// bfvInputs is everything mul_paper and add_routed derive from the seed
// before any key exists: operand plaintexts, the order the pool is walked in,
// and the order tenants take turns in.
type bfvInputs struct {
	a, b        [][]uint64 // plainTerms coefficients per pool entry
	order       []int      // pool index of request i
	tenantOrder []int      // tenant index of request i
}

func genBFVInputs(seed uint64, t uint64, tenants int) bfvInputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := bfvInputs{}
	for i := 0; i < poolPairs; i++ {
		a, b := make([]uint64, plainTerms), make([]uint64, plainTerms)
		for j := range a {
			a[j], b[j] = uint64(rng.Int63n(int64(t))), uint64(rng.Int63n(int64(t)))
		}
		in.a, in.b = append(in.a, a), append(in.b, b)
	}
	in.order = make([]int, orderLen)
	for i := range in.order {
		in.order[i] = rng.Intn(poolPairs)
	}
	// Tenants take turns in a seeded shuffle, repeated: every tenant is hit
	// equally often, in an order only the seed fixes.
	perm := rng.Perm(tenants)
	in.tenantOrder = make([]int, orderLen)
	for i := range in.tenantOrder {
		in.tenantOrder[i] = perm[i%tenants]
	}
	return in
}

// fvPair is one pool entry: two fresh ciphertexts and the ciphertext the
// software evaluator computes from them, checked once by decryption.
type fvPair struct {
	a, b, want *fv.Ciphertext
}

// bfvOp is the op-at-a-time BFV serving workload: clients → router → nodes.
type bfvOp struct {
	mul      bool
	nclients int
	params   *fv.Params
	rk       *fv.RelinKey
	in       bfvInputs
	pool     []fvPair
	tenants  []string
	nodes    []*node
	tier     *routerTier
	conns    []*cloud.Client
}

func mulPaperSpec() spec {
	return spec{
		name:       "mul_paper",
		why:        "BFV Mult+relin at the paper set through router and node: the paper's headline, compute layers (hwsim/sched/core) carry most of the request",
		maxClients: 2, warmup: mulWarmup, paperSimMs: paperMulMs,
		setup: func(seed uint64, clients int) (workload, error) {
			// One tenant per client, one node with the paper's two workers,
			// router on the shared mux connection.
			return setupBFVOp(seed, clients, true, []string{"tenant-a", "tenant-b"}, 1, 2, true)
		},
	}
}

func addRoutedSpec() spec {
	tenants := make([]string, addTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return spec{
		name:       "add_routed",
		why:        "BFV Add on the same 393 KB requests over 32 tenants and 2 nodes: compute is ~5% of the request, so the cluster hop and the wire codec are what is measured",
		maxClients: 2, warmup: addWarmup, paperSimMs: paperAddMs,
		setup: func(seed uint64, clients int) (workload, error) {
			// Two single-worker nodes, router on its default pooled
			// per-request connections (the transport mul_paper does not use).
			return setupBFVOp(seed, clients, false, tenants, 2, 1, false)
		},
	}
}

func setupBFVOp(seed uint64, clients int, mul bool, tenants []string, nodes, workers int, mux bool) (_ workload, err error) {
	params, err := fv.NewParams(fv.PaperConfig(paperT))
	if err != nil {
		return nil, err
	}
	params.Pool.EnableMetrics() // as heserver does
	w := &bfvOp{mul: mul, nclients: clients, params: params, tenants: tenants, in: genBFVInputs(seed, paperT, len(tenants))}
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(seed))
	sk, pk, rk := kg.GenKeys()
	w.rk = rk
	if w.pool, err = buildFVPool(params, sk, pk, rk, w.in, mul, seed); err != nil {
		return nil, err
	}

	for i := 0; i < nodes; i++ {
		n, err := startNode(fmt.Sprintf("node-%d", i), params, nil, workers)
		if err != nil {
			return nil, err
		}
		w.nodes = append(w.nodes, n)
		if mul {
			for _, tn := range tenants {
				n.eng.SetRelinKey(tn, rk)
			}
		}
	}
	if w.tier, err = startRouter(params, w.nodes, mux); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		conn, err := cloud.DialTenant(w.tier.addr, params, tenants[c%len(tenants)])
		if err != nil {
			return nil, fmt.Errorf("dial router: %w", err)
		}
		w.conns = append(w.conns, conn)
	}
	return w, nil
}

// buildFVPool encrypts the seeded operands, computes each expected result
// with the software evaluator and checks it by decryption against the
// cleartext product or sum (exact, mod t).
func buildFVPool(params *fv.Params, sk *fv.SecretKey, pk *fv.PublicKey, rk *fv.RelinKey, in bfvInputs, mul bool, seed uint64) ([]fvPair, error) {
	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(seed^keySeedSalt))
	dec := fv.NewDecryptor(params, sk)
	ev := fv.NewEvaluator(params)
	t := params.T()
	pool := make([]fvPair, len(in.a))
	for i := range pool {
		pa, pb := fv.NewPlaintext(params), fv.NewPlaintext(params)
		copy(pa.Coeffs, in.a[i])
		copy(pb.Coeffs, in.b[i])
		p := fvPair{a: enc.Encrypt(pa), b: enc.Encrypt(pb)}
		clear := fv.NewPlaintext(params)
		if mul {
			p.want = ev.Mul(p.a, p.b, rk)
			// The operands have plainTerms coefficients each, so the
			// negacyclic product does not wrap.
			for x, ca := range in.a[i] {
				for y, cb := range in.b[i] {
					clear.Coeffs[x+y] = (clear.Coeffs[x+y] + ca*cb) % t
				}
			}
		} else {
			p.want = ev.Add(p.a, p.b)
			for x := range in.a[i] {
				clear.Coeffs[x] = (in.a[i][x] + in.b[i][x]) % t
			}
		}
		if got := dec.Decrypt(p.want); !got.Equal(clear) {
			return nil, fmt.Errorf("pool entry %d: the software evaluator's result does not decrypt to the cleartext result", i)
		}
		pool[i] = p
	}
	return pool, nil
}

func (w *bfvOp) clients() int { return len(w.conns) }

func (w *bfvOp) engines() []*engine.Engine {
	engs := make([]*engine.Engine, len(w.nodes))
	for i, n := range w.nodes {
		engs[i] = n.eng
	}
	return engs
}

func (w *bfvOp) cmd() uint8 {
	if w.mul {
		return cloud.CmdMul
	}
	return cloud.CmdAdd
}

func (w *bfvOp) kind() engine.OpKind {
	if w.mul {
		return engine.OpMul
	}
	return engine.OpAdd
}

// at returns the operands and tenant of the i-th request of the seeded
// order, sent by client c. mul_paper keeps one tenant per client; add_routed
// takes the tenant from the seeded order too.
func (w *bfvOp) at(i, c int) (fvPair, string) {
	tenant := w.tenants[c%len(w.tenants)]
	if !w.mul {
		tenant = w.tenants[w.in.tenantOrder[i%orderLen]]
	}
	return w.pool[w.in.order[i%orderLen]], tenant
}

func (w *bfvOp) request(ctx context.Context, rec *recorder, c, seq int) (uint64, error) {
	// The clients interleave, so together they walk the order in sequence.
	p, tenant := w.at(seq*w.nclients+c, c)
	return doFV(ctx, rec, w.conns[c], &cloud.Request{Cmd: w.cmd(), Tenant: tenant, A: p.a, B: p.b}, p.want, uint64(c)<<32|uint64(seq))
}

// doFV sends one BFV request on conn and checks the answer bit for bit.
func doFV(ctx context.Context, rec *recorder, conn *cloud.Client, req *cloud.Request, want *fv.Ciphertext, id uint64) (uint64, error) {
	root := rec.begin("client.request", nil, id)
	defer root.end()
	sp := rec.begin("cloud.Client.Do", root, id)
	resp, err := conn.Do(ctx, req)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = rec.begin("bench.verify", root, id)
	err = sameFV(resp.Result, want)
	sp.end()
	return resp.ComputeNanos, err
}

func sameFV(got, want *fv.Ciphertext) error {
	if got == nil || !got.Equal(want) {
		return errWrong
	}
	return nil
}

// ladder peels the request from the outside in. Every rung checks its result
// against the same expected ciphertext, so the cost of checking cancels in
// the differences and every layer is shown to be bit-identical on the way.
func (w *bfvOp) ladder() ([]rung, func(), error) {
	ctx := context.Background()
	// The loaded phase is over: keep one router connection for R0 and trade
	// the others for one straight to the first node (R1).
	for _, c := range w.conns[1:] {
		c.Close()
	}
	w.conns = w.conns[:1]
	direct, err := cloud.Dial(w.nodes[0].addr, w.params)
	if err != nil {
		return nil, nil, fmt.Errorf("dial node: %w", err)
	}
	acc, err := core.New(w.params, hwsim.VariantHPS, 1)
	if err != nil {
		direct.Close()
		return nil, nil, err
	}
	cop, err := newCoprocessor(w.params)
	if err != nil {
		direct.Close()
		return nil, nil, err
	}
	sch := sched.New(w.params, cop)
	ev := fv.NewEvaluator(w.params)
	out := fv.NewCiphertext(w.params, 2)
	eng := w.nodes[0].eng

	wire := func(conn *cloud.Client) func(int) error {
		return func(i int) error {
			p, tenant := w.at(i, 0)
			_, err := doFV(ctx, nil, conn, &cloud.Request{Cmd: w.cmd(), Tenant: tenant, A: p.a, B: p.b}, p.want, 0)
			return err
		}
	}
	rungs := []rung{
		{"R0 client>router>node", "cluster.hop_ms", wire(w.conns[0])},
		{"R1 client>node", "cloud.wire_ms", wire(direct)},
		{"R2 engine.Submit", "engine.overhead_ms", func(i int) error {
			p, tenant := w.at(i, 0)
			res, err := eng.Submit(ctx, engine.Op{Kind: w.kind(), Tenant: tenant, A: p.a, B: p.b})
			if err != nil {
				return err
			}
			return sameFV(res.Ct, p.want)
		}},
		{"R3 core.Accelerator", "core.overhead_ms", func(i int) error {
			p, _ := w.at(i, 0)
			var ct *fv.Ciphertext
			var err error
			if w.mul {
				ct, _, err = acc.Mul(p.a, p.b, w.rk)
			} else {
				ct, _, err = acc.Add(p.a, p.b)
			}
			if err != nil {
				return err
			}
			return sameFV(ct, p.want)
		}},
		{"R4 sched.Scheduler on hwsim", "hwsim.model_overhead_ms", func(i int) error {
			p, _ := w.at(i, 0)
			var ct *fv.Ciphertext
			var err error
			if w.mul {
				ct, _, err = sch.Mul(p.a, p.b, w.rk)
			} else {
				ct, _, err = sch.Add(p.a, p.b)
			}
			if err != nil {
				return err
			}
			return sameFV(ct, p.want)
		}},
		{"R5 fv.Evaluator", "client.ladder_floor_ms", func(i int) error {
			p, _ := w.at(i, 0)
			if w.mul {
				ev.MulInto(p.a, p.b, w.rk, out)
				return sameFV(out, p.want)
			}
			return sameFV(ev.Add(p.a, p.b), p.want)
		}},
	}
	return rungs, func() { direct.Close() }, nil
}

// newCoprocessor builds a bare simulated co-processor the way core does.
func newCoprocessor(params *fv.Params) (*hwsim.Coprocessor, error) {
	return hwsim.NewCoprocessor(params.QMods, params.PMods, params.N(), params.Lifter, params.Scaler,
		hwsim.VariantHPS, hwsim.DefaultTiming(), sched.PipelinedMinSlots(2))
}

func (w *bfvOp) layers(m metricSet, loaded *windowResult, lad *ladderResult) error {
	p := w.pool[0]
	clusterLayers(m, w.tier, w.tenants, loaded)
	engineLayers(m, loaded)
	resp := &cloud.Response{Ver: cloud.ProtoV2, ID: 1, Result: p.want, ComputeNanos: 1}
	req := &cloud.Request{Cmd: w.cmd(), Ver: cloud.ProtoV2, ID: 1, Tenant: w.tenants[0], A: p.a, B: p.b}
	if err := codecLayers(m, opCodec(w.params, nil, req, resp)); err != nil {
		return err
	}
	if err := bfvHardwareLayers(m, w.params, w.rk, p, w.mul); err != nil {
		return err
	}
	fvLayers(m, w.params, w.rk, p)
	return substrateLayers(m, w.params, w.rk, p.a)
}

func (w *bfvOp) close() error {
	var errs []error
	for _, c := range w.conns {
		errs = append(errs, c.Close())
	}
	if w.tier != nil {
		errs = append(errs, w.tier.stop())
	}
	for _, n := range w.nodes {
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}
