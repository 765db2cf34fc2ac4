package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/program"
	"repro/internal/sched"
)

// This file is the dependence-aware DAG scheduler: a compiled
// internal/program executes as ONE admission unit instead of a stream of
// independent Submit calls. That buys three things op-at-a-time serving
// cannot have:
//
//   - One round trip. The client ships the whole circuit; intermediates
//     never cross the wire (the paper's Fig. 11 deployment keeps them in
//     co-processor memory for exactly this reason).
//   - One key load per evaluation key. The relinearization key alone is
//     ~1.2 MB for the paper set (Sec. V-D); op-at-a-time serving re-streams
//     it whenever the LRU slot was lost. A program charges each key's DMA
//     exactly once up front.
//   - Wavefront parallelism. Analyze levelizes the DAG; every node in a
//     wavefront has its operands ready, so the scheduler fans the wavefront
//     across the worker pool and synchronizes only at level boundaries.
//
// Makespan accounting is deterministic on purpose: real goroutine
// scheduling decides which worker computes which node, but the reported
// MakespanCycles come from a virtual round-robin placement of the (data-
// independent) per-node cycle counts onto Config.Workers lanes. Identical
// submissions therefore report identical makespans, which is what lets the
// benchmark-regression gate pin program-mode wins without calibration.

// ProgramOp is one compiled program submission.
type ProgramOp struct {
	Tenant string
	Prog   *program.Program
	Inputs []*fv.Ciphertext
}

// ProgramResult is the outcome of a scheduled program execution.
type ProgramResult struct {
	Outputs []*fv.Ciphertext
	Nodes   int // DAG nodes executed

	// MakespanCycles is the deterministic simulated completion time of the
	// levelized schedule on Config.Workers lanes, including the key
	// prologue; SerialCycles is what the same nodes would cost end to end on
	// one lane (the op-at-a-time floor). Their ratio is the parallel
	// speedup the DAG exposed.
	MakespanCycles hwsim.Cycles
	SerialCycles   hwsim.Cycles
	KeyLoadCycles  hwsim.Cycles

	KeyLoads int // evaluation keys streamed (once each, the point of program mode)
	Workers  int // scheduling lanes used for the makespan model
	Retries  int // integrity-failure node retries that recovered
	Wait     time.Duration
}

// progTask is one DAG node, a job on the worker pool's job stream. Operands
// are resolved by the scheduler (they live in earlier wavefronts), so a
// worker needs no program context — it executes the node and reports back on
// res, which is buffered to the wavefront width and never blocks.
type progTask struct {
	op    program.OpCode
	a, b  *fv.Ciphertext
	plain *fv.Plaintext
	key   evalKey // the node's relinearization or Galois key, if it uses one

	def int // value index this node defines
	res chan progNodeResult
}

type progNodeResult struct {
	def    int
	ct     *fv.Ciphertext
	cycles hwsim.Cycles
	err    error
}

// SubmitProgram admits a compiled program and blocks until every output is
// computed, the deadline passes, or the context is canceled. Admission is
// bounded at one program per worker (ErrOverloaded beyond it); missing
// evaluation keys fail fast with ErrNoKey before any node executes.
func (e *Engine) SubmitProgram(ctx context.Context, op ProgramOp) (*ProgramResult, error) {
	p := op.Prog
	if p == nil {
		return nil, errors.New("engine: nil program")
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	if err := p.CheckParams(e.cfg.Params); err != nil {
		return nil, err
	}
	if len(op.Inputs) != p.NumInputs {
		return nil, fmt.Errorf("engine: program needs %d inputs, got %d", p.NumInputs, len(op.Inputs))
	}
	if err := e.noiseGuard(p); err != nil {
		return nil, err
	}

	// Admission takes one program slot, non-blocking like Submit, and makes
	// the program a producer on the job stream. The producer count is raised
	// under the lock Shutdown takes to close admission, so Shutdown's wait
	// for producers cannot miss this program.
	t, err := e.admit(ctx, op.Tenant, func(ticket) bool {
		select {
		case e.progSlots <- struct{}{}:
			e.producers.Add(1)
			return true
		default:
			return false
		}
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		e.producers.Done()
		<-e.progSlots
		t.tc.inflight.Add(-1)
	}()

	res, err := e.runProgram(op, t)
	if err != nil {
		if errors.Is(err, ErrDeadlineExceeded) {
			e.m.expired.Add(1)
		} else {
			e.m.failed.Add(1)
			t.tc.failed.Add(1)
		}
		return nil, err
	}
	res.Wait = time.Since(t.admitted)
	e.m.programs.Add(1)
	e.m.programNodes.Add(uint64(res.Nodes))
	e.m.completed.Add(1)
	t.tc.completed.Add(1)
	t.tc.programs.Add(1)
	t.tc.simCycles.Add(uint64(res.MakespanCycles))
	return res, nil
}

// runProgram is the scheduler proper: key prologue, then one wavefront at a
// time through the worker pool.
func (e *Engine) runProgram(op ProgramOp, tk ticket) (*ProgramResult, error) {
	p := op.Prog

	// Key prologue: resolve and charge every evaluation key the program
	// needs exactly once. Op-at-a-time serving pays this per batch (and per
	// LRU miss); a program pays it per submission, period.
	var (
		rk        evalKey
		gks       = map[int]evalKey{}
		keyCycles hwsim.Cycles
		keyLoads  int
	)
	// load resolves one key and charges its stream.
	load := func(id keyID) (evalKey, error) {
		key, ok := e.keys.get(id)
		if !ok {
			return key, fmt.Errorf("%w: %v", ErrNoKey, id)
		}
		keyCycles += e.workers[0].keyStreamCycles(key.bytes)
		keyLoads++
		return key, nil
	}
	if p.NeedsRelinKey() {
		var err error
		if rk, err = load(relinID(op.Tenant, schemeBFV)); err != nil {
			return nil, err
		}
	}
	for _, g := range p.GaloisElements() {
		gk, err := load(galoisID(op.Tenant, schemeBFV, g))
		if err != nil {
			return nil, err
		}
		gks[g] = gk
	}
	e.m.keyLoads.Add(uint64(keyLoads))
	tk.tc.keyLoads.Add(uint64(keyLoads))

	analysis := p.Analyze()
	plains := program.MaterializePlains(e.cfg.Params, p)
	vals := make([]*fv.Ciphertext, p.NumValues())
	copy(vals, op.Inputs)
	nodeCycles := make([]hwsim.Cycles, p.NumValues())
	retriesLeft := make([]int, len(p.Nodes))
	for i := range retriesLeft {
		retriesLeft[i] = e.cfg.MaxIntegrityRetries
	}

	makespan := keyCycles
	serial := keyCycles
	totalRetries := 0

	for _, level := range analysis.Levels {
		if err := tk.expired(time.Now()); err != nil {
			return nil, err
		}
		// Dispatch the whole wavefront: every node's operands are defined in
		// strictly earlier levels, so vals reads here race with nothing.
		pending := level
		results := make(chan progNodeResult, len(level))
		for len(pending) > 0 {
			dispatched := 0
			for _, ni := range pending {
				n := p.Nodes[ni]
				t := &progTask{op: n.Op, a: vals[n.A], def: p.NumInputs + ni, res: results}
				switch {
				case n.Op == program.OpAdd || n.Op == program.OpSub:
					t.b = vals[n.B]
				case n.Op == program.OpMul || n.Op == program.OpMulNR:
					t.b = vals[n.B]
					t.key = rk
				case n.Op == program.OpRelin:
					t.key = rk
				case n.Op == program.OpRotate:
					t.key = gks[n.B]
				case n.Op == program.OpAddPlain || n.Op == program.OpMulPlain:
					t.plain = plains[n.B]
				}
				select {
				case e.jobs <- t:
					dispatched++
				case <-tk.ctx.Done():
					// Stop dispatching, but the nodes already on workers are
					// still reading the program's inputs: wait them out, as on
					// the failure path below.
					for ; dispatched > 0; dispatched-- {
						<-results
					}
					return nil, tk.ctx.Err()
				}
			}
			// Collect the wavefront. Integrity failures re-dispatch the node
			// (operands are still pristine in vals), up to the same retry
			// budget single ops get.
			var redo []int
			for got := 1; got <= len(pending); got++ {
				r := <-results
				ni := r.def - p.NumInputs
				if r.err != nil {
					if errors.Is(r.err, hwsim.ErrIntegrity) && retriesLeft[ni] > 0 {
						retriesLeft[ni]--
						totalRetries++
						e.m.integrityRetries.Add(1)
						redo = append(redo, ni)
						continue
					}
					// The rest of the wavefront is still reading the program's
					// inputs on other workers; the caller may recycle them the
					// moment this returns, so wait those nodes out first.
					for ; got < len(pending); got++ {
						<-results
					}
					return nil, fmt.Errorf("engine: program node %d (%v): %w", ni, p.Nodes[ni].Op, r.err)
				}
				vals[r.def] = r.ct
				nodeCycles[r.def] = r.cycles
			}
			pending = redo
		}
		// Deterministic makespan: place the level's (data-independent) node
		// costs on Config.Workers virtual lanes round-robin, in node order.
		lanes := make([]hwsim.Cycles, e.cfg.Workers)
		for i, ni := range level {
			c := nodeCycles[p.NumInputs+ni]
			lanes[i%len(lanes)] += c
			serial += c
		}
		levelSpan := hwsim.Cycles(0)
		for _, l := range lanes {
			if l > levelSpan {
				levelSpan = l
			}
		}
		makespan += levelSpan
	}

	outs := make([]*fv.Ciphertext, len(p.Outputs))
	for i, o := range p.Outputs {
		outs[i] = vals[o]
	}
	return &ProgramResult{
		Outputs:        outs,
		Nodes:          len(p.Nodes),
		MakespanCycles: makespan,
		SerialCycles:   serial,
		KeyLoadCycles:  keyCycles,
		KeyLoads:       keyLoads,
		Workers:        e.cfg.Workers,
		Retries:        totalRetries,
	}, nil
}

// noiseGuard pre-screens the whole program through the fv noise model on
// the server's own numbers: the server cannot measure an input's budget
// without the secret key, so it bounds every program from fresh inputs
// (NoiseModel.Fresh). A circuit too deep even from fresh ciphertexts would
// decrypt to garbage; it is refused before a single simulated cycle is
// spent.
func (e *Engine) noiseGuard(p *program.Program) error {
	predicted := p.PredictBudget(e.noise, e.noise.Fresh())
	if predicted < minNoiseBudgetBits {
		e.m.noiseRejected.Add(1)
		return fmt.Errorf("%w: program predicted to leave %.1f bits (floor %.1f)",
			ErrNoiseBudget, predicted, minNoiseBudgetBits)
	}
	return nil
}

// progKinds maps the program opcodes the co-processor runs onto the engine
// kinds exec serves.
var progKinds = map[program.OpCode]OpKind{
	program.OpAdd:    OpAdd,
	program.OpMul:    OpMul,
	program.OpRotate: OpRotate,
}

// run executes one DAG node on w. Accelerator-native ops (add, mul, rotate)
// run on the simulated co-processor with its cycle accounting and integrity
// checks; the rest run on the worker's software evaluator with cycles from
// swOpCycles so the makespan model stays in one currency.
func (t *progTask) run(e *Engine, w *worker) {
	var (
		ct     *fv.Ciphertext
		cycles hwsim.Cycles
		err    error
	)
	start := time.Now()
	switch t.op {
	case program.OpAdd, program.OpMul, program.OpRotate:
		var rep sched.Report
		ct, _, rep, err = e.exec(w, &Op{Kind: progKinds[t.op], A: t.a, B: t.b}, t.key)
		cycles = rep.ComputeCycles
	case program.OpSub:
		ct = w.ev.Sub(t.a, t.b)
		cycles = e.swOpCycles(1)
	case program.OpNeg:
		ct = w.ev.Neg(t.a)
		cycles = e.swOpCycles(1)
	case program.OpMulNR:
		ct = w.ev.MulNoRelin(t.a, t.b)
		cycles = e.swOpCycles(4) // tensor product: four cross multiplications
	case program.OpRelin:
		rk := t.key.key.(*fv.RelinKey)
		ct = w.ev.Relinearize(t.a, rk)
		cycles = e.swOpCycles(2 * len(rk.Rlk0Hat))
	case program.OpAddPlain:
		ct = w.ev.AddPlain(t.a, t.plain)
		cycles = e.swOpCycles(1)
	case program.OpMulPlain:
		ct = w.ev.MulPlain(t.a, t.plain)
		cycles = e.swOpCycles(2)
	default:
		err = fmt.Errorf("engine: unsupported program opcode %d", uint8(t.op))
	}
	e.m.execTime.Observe(time.Since(start))
	if err != nil {
		t.res <- progNodeResult{def: t.def, err: err}
		return
	}
	w.ops.Add(1)
	w.simCycles.Add(uint64(cycles))
	t.res <- progNodeResult{def: t.def, ct: ct, cycles: cycles}
}

// swOpCycles models a software-executed program node in FPGA cycles so the
// makespan stays in one unit: `passes` coefficient-wise passes over a full
// R_q ciphertext component plus one instruction dispatch. A pass costs what
// the co-processor's cost table charges a CADD over the q batch, less its
// dispatch (the RPAUs cover every q row at once).
func (e *Engine) swOpCycles(passes int) hwsim.Cycles {
	c := e.workers[0].hw.C
	pass := c.Cycles(hwsim.Instr{Op: hwsim.OpCAdd, Batch: hwsim.BatchQ}) - c.Dispatch()
	return hwsim.Cycles(passes)*pass + c.Dispatch()
}
