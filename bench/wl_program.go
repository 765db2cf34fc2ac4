package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/program"
	"repro/internal/sampler"
)

const (
	searchEntries = 8 // table rows
	searchKeyBits = 8 // query width: an AND tree of depth 3 per row
	searchWarmup  = 3
)

// searchParams is the parameter set program mode runs at: t = 2 for boolean
// circuits, six 30-bit q primes for the depth-3 AND tree with margin — the
// sizing cmd/hebench's program_encsearch op established.
func searchParams() (*fv.Params, error) {
	return fv.NewParams(fv.Config{
		N: 512, T: 2, QCount: 6, PCount: 7, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 7,
	})
}

// searchInputs is what program_search derives from the seed: the table the
// program is compiled against and the order queries are sent in. Query k
// asks for table row k, so every pool entry is a hit with a known value.
type searchInputs struct {
	table []program.TableEntry
	order []int
}

func genSearchInputs(seed uint64) searchInputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := searchInputs{}
	// Distinct keys: a seeded sample without replacement of the key space.
	for i, k := range rng.Perm(1 << searchKeyBits)[:searchEntries] {
		// Value 0 means "no match", so rows carry 100+i.
		in.table = append(in.table, program.TableEntry{Key: uint64(k), Value: int64(100 + i)})
	}
	in.order = make([]int, orderLen)
	for i := range in.order {
		in.order[i] = rng.Intn(searchEntries)
	}
	return in
}

// searchQuery is one pool entry: the encrypted bits of a key and the output
// ciphertext the reference interpreter computes for it.
type searchQuery struct {
	bits []*fv.Ciphertext
	want *fv.Ciphertext
}

// programSearch is the program-mode workload: whole compiled circuits over
// one shared mux connection, straight to a node.
type programSearch struct {
	nclients int
	params   *fv.Params
	in       searchInputs
	prog     *program.Program
	pool     []searchQuery
	node     *node
	mc       *cloud.MuxClient
}

func programSearchSpec() spec {
	return spec{
		name:       "program_search",
		why:        "program mode, the paper's Sec. III-A encrypted search as one ~100-node circuit per request over a shared mux connection: one admission, one key load, wavefront scheduling on two workers",
		maxClients: 2, warmup: searchWarmup,
		setup: setupProgramSearch,
	}
}

func setupProgramSearch(seed uint64, clients int) (_ workload, err error) {
	params, err := searchParams()
	if err != nil {
		return nil, err
	}
	params.Pool.EnableMetrics()
	w := &programSearch{nclients: clients, params: params, in: genSearchInputs(seed)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.prog, err = program.CompileEncSearch(params, w.in.table, searchKeyBits); err != nil {
		return nil, err
	}

	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(seed))
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(seed^keySeedSalt))
	dec := fv.NewDecryptor(params, sk)
	ienc := fv.NewIntegerEncoder(params)
	for k, row := range w.in.table {
		q := searchQuery{bits: make([]*fv.Ciphertext, w.prog.NumInputs)}
		for i := range q.bits {
			pt := fv.NewPlaintext(params)
			pt.Coeffs[0] = (row.Key >> i) & 1
			q.bits[i] = enc.Encrypt(pt)
		}
		outs, err := program.Run(params, w.prog, q.bits, program.Keys{Relin: rk})
		if err != nil {
			return nil, fmt.Errorf("query %d: reference interpreter: %w", k, err)
		}
		q.want = outs[0]
		got, err := ienc.Decode(dec.Decrypt(q.want))
		if err != nil || got != row.Value {
			return nil, fmt.Errorf("query %d: the reference result decrypts to %d (%v), the table says %d", k, got, err, row.Value)
		}
		w.pool = append(w.pool, q)
	}

	if w.node, err = startNode("node-0", params, nil, 2); err != nil {
		return nil, err
	}
	w.node.eng.SetRelinKey(cloud.DefaultTenant, rk)
	if w.mc, err = cloud.DialMux(w.node.addr, params); err != nil {
		return nil, fmt.Errorf("dial node: %w", err)
	}
	return w, nil
}

// clients is the number of submitters; they share the one mux connection.
func (w *programSearch) clients() int { return w.nclients }

func (w *programSearch) engines() []*engine.Engine { return []*engine.Engine{w.node.eng} }

func (w *programSearch) at(i int) searchQuery { return w.pool[w.in.order[i%orderLen]] }

func (w *programSearch) request(ctx context.Context, rec *recorder, c, seq int) (uint64, error) {
	id := uint64(c)<<32 | uint64(seq)
	q := w.at(seq*w.nclients + c)
	root := rec.begin("client.request", nil, id)
	defer root.end()
	sp := rec.begin("cloud.MuxClient.RunProgram", root, id)
	resp, err := w.mc.RunProgram(ctx, w.prog, q.bits)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = rec.begin("bench.verify", root, id)
	same := len(resp.Outputs) == 1 && resp.Outputs[0].Equal(q.want)
	sp.end()
	if !same {
		return 0, errWrong
	}
	return resp.MakespanNanos, nil
}

// ladder has two rungs. Below SubmitProgram the engine runs a wavefront on
// two workers at once, so the rungs further down (one accelerator, one
// scheduler, the serial interpreter) do not contain each other: the engine's
// own program_* metrics describe that part instead.
func (w *programSearch) ladder() ([]rung, func(), error) {
	ctx := context.Background()
	return []rung{
		{"R1 client>node", "cloud.wire_ms", func(i int) error {
			q := w.at(i)
			resp, err := w.mc.RunProgram(ctx, w.prog, q.bits)
			if err != nil {
				return err
			}
			if len(resp.Outputs) != 1 {
				return errWrong
			}
			return sameFV(resp.Outputs[0], q.want)
		}},
		{"R2 engine.SubmitProgram", "client.ladder_floor_ms", func(i int) error {
			q := w.at(i)
			res, err := w.node.eng.SubmitProgram(ctx, engine.ProgramOp{Prog: w.prog, Inputs: q.bits})
			if err != nil {
				return err
			}
			if len(res.Outputs) != 1 {
				return errWrong
			}
			return sameFV(res.Outputs[0], q.want)
		}},
	}, func() {}, nil
}

func (w *programSearch) layers(m metricSet, loaded *windowResult, lad *ladderResult) error {
	engineLayers(m, loaded)
	q := w.pool[0]

	// The engine's account of one program, from SubmitProgram's result.
	res, err := w.node.eng.SubmitProgram(context.Background(), engine.ProgramOp{Prog: w.prog, Inputs: q.bits})
	if err != nil {
		return err
	}
	m.set("engine.program_makespan_ms", res.MakespanCycles.Seconds()*1e3)
	m.set("engine.program_serial_ms", res.SerialCycles.Seconds()*1e3)
	m.set("engine.program_parallel_speedup", float64(res.SerialCycles)/float64(res.MakespanCycles))
	m.set("engine.program_key_loads", float64(res.KeyLoads))
	if lad != nil {
		m.setN("engine.program_host_ms_per_node", lad.Medians[len(lad.Medians)-1]/float64(res.Nodes), lad.Samples)
	}

	// The program codec and analysis.
	data, err := w.prog.EncodeBytes()
	if err != nil {
		return err
	}
	an := w.prog.Analyze()
	m.set("program.bytes", float64(len(data)))
	m.set("program.nodes", float64(len(w.prog.Nodes)))
	m.set("program.depth", float64(an.MaxDepth))
	ms, err := timeMedianErr(lightReps, func() error { _, err := w.prog.EncodeBytes(); return err })
	if err != nil {
		return err
	}
	m.setN("program.encode_us", 1e3*ms, lightReps)
	ms, err = timeMedianErr(lightReps, func() error {
		_, err := program.DecodeBytes(data, cloud.ProgramLimits())
		return err
	})
	if err != nil {
		return err
	}
	m.setN("program.decode_us", 1e3*ms, lightReps)
	m.setN("program.analyze_us", 1e3*timeMedian(lightReps, func() { w.prog.Analyze() }), lightReps)

	// The wire codec on the program request and its response.
	if err := codecLayers(m, w.codec(data, q)); err != nil {
		return err
	}
	pair := fvPair{a: q.bits[0], b: q.bits[1]}
	rk := w.node.eng.ExportTenantKeys(cloud.DefaultTenant).Relin
	if err := bfvHardwareLayers(m, w.params, rk, pair, true); err != nil {
		return err
	}
	fvLayers(m, w.params, rk, pair)
	return substrateLayers(m, w.params, rk, q.bits[0])
}

func (w *programSearch) codec(data []byte, q searchQuery) codec {
	req := &cloud.Request{Cmd: cloud.CmdProgram, Ver: cloud.ProtoV2, ID: 1, ProgBytes: data, Inputs: q.bits}
	resp := &cloud.ProgramResponse{ID: 1, Outputs: []*fv.Ciphertext{q.want}, MakespanNanos: 1, SerialNanos: 1, KeyLoads: 1, Nodes: 1}
	return codec{
		encodeReq: func(b *bytes.Buffer) error { return cloud.WriteRequest(b, w.params, req) },
		decodeReq: func(data []byte) error {
			_, err := cloud.ReadRequest(bytes.NewReader(data), w.params)
			return err
		},
		encodeResp: func(b *bytes.Buffer) error { return cloud.WriteProgramResponse(b, w.params, resp) },
		decodeResp: func(data []byte) error {
			_, err := cloud.ReadProgramResponse(bytes.NewReader(data), w.params)
			return err
		},
	}
}

func (w *programSearch) close() error {
	var errs []error
	if w.mc != nil {
		errs = append(errs, w.mc.Close())
	}
	if w.node != nil {
		errs = append(errs, w.node.stop())
	}
	return errors.Join(errs...)
}
