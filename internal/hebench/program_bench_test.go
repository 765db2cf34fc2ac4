package hebench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/program"
	"repro/internal/sampler"
)

// programComparison is one encrypted-search query measured both ways —
// op-at-a-time round trips against a single compiled-program submission —
// with decrypted results so the comparison never reports a win from a wrong
// answer.
type programComparison struct {
	// Round trips: engine admissions the query costs each way. Program mode
	// is 1 by construction; opwise pays one per ciphertext-ciphertext op.
	OpwiseRoundTrips  int
	ProgramRoundTrips int

	// OpwiseSerialCycles is the single-worker engine's total simulated busy
	// time for the op stream; ProgramMakespanCycles is the DAG schedule's
	// deterministic completion time on searchWorkers lanes (key prologue
	// included).
	OpwiseSerialCycles    uint64
	ProgramMakespanCycles uint64
	ProgramSerialCycles   uint64

	KeyLoads int // program-mode evaluation-key streams (want: 1)
	Nodes    int

	// Decrypted search results, both ways, and the expected value.
	OpwiseValue  int64
	ProgramValue int64
	Want         int64
}

// The encrypted-search workload: a 4-row table of 8-bit keys, compiled to one
// program and scheduled onto the paper's two co-processors.
const (
	searchEntries = 4
	searchKeyBits = 8
	searchWorkers = 2
)

// runProgramComparison builds the encrypted-search workload, runs it op by op
// on a one-worker engine and as one program on a searchWorkers engine, and
// returns both cost profiles. Everything measured is simulated time, so the
// numbers are machine-independent and exactly reproducible.
func runProgramComparison() (*programComparison, error) {
	// Depth headroom for the ⌈log2 keyBits⌉ AND tree at t = 2: six 30-bit q
	// primes carry the depth-3 tree of 8-bit keys with a wide margin.
	params, err := fv.NewParams(fv.Config{
		N: 512, T: 2, QCount: 6, PCount: 7, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 7,
	})
	if err != nil {
		return nil, err
	}
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(2027))
	sk, pk, rk := kg.GenKeys()

	table := make([]program.TableEntry, searchEntries)
	for i := range table {
		// Distinct keys spread over the key space; value 0 is reserved for
		// "no match", so entries carry 100+i.
		table[i] = program.TableEntry{
			Key:   uint64(i*37+11) % (1 << searchKeyBits),
			Value: int64(100 + i),
		}
	}
	match := len(table) / 2
	query := table[match].Key

	p, err := program.CompileEncSearch(params, table, searchKeyBits)
	if err != nil {
		return nil, err
	}

	enc := fv.NewEncryptor(params, pk, sampler.NewPRNG(5))
	inputs := make([]*fv.Ciphertext, p.NumInputs)
	for i := range inputs {
		pt := fv.NewPlaintext(params)
		pt.Coeffs[0] = (query >> i) & 1
		inputs[i] = enc.Encrypt(pt)
	}

	cmp := &programComparison{
		ProgramRoundTrips: 1,
		Nodes:             len(p.Nodes),
		Want:              table[match].Value,
	}
	dec := fv.NewDecryptor(params, sk)
	ienc := fv.NewIntegerEncoder(params)

	// Op-at-a-time side: every ciphertext-ciphertext op is one engine
	// admission (one wire round trip in deployment); plaintext ops run on the
	// client, as an op-serving client would.
	opwiseOut, err := runOpwise(params, rk, p, inputs, cmp)
	if err != nil {
		return nil, err
	}
	if cmp.OpwiseValue, err = ienc.Decode(dec.Decrypt(opwiseOut)); err != nil {
		return nil, err
	}

	// Program side: the whole circuit as one admission unit.
	eng, err := engine.New(engine.Config{
		Params:        params,
		Workers:       searchWorkers,
		QueueDepth:    16,
		KeyCacheSlots: 2,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		eng.Shutdown(ctx)
		cancel()
	}()
	eng.SetRelinKey("", rk)
	res, err := eng.SubmitProgram(context.Background(), engine.ProgramOp{Prog: p, Inputs: inputs})
	if err != nil {
		return nil, err
	}
	cmp.ProgramMakespanCycles = uint64(res.MakespanCycles)
	cmp.ProgramSerialCycles = uint64(res.SerialCycles)
	cmp.KeyLoads = res.KeyLoads
	if cmp.ProgramValue, err = ienc.Decode(dec.Decrypt(res.Outputs[0])); err != nil {
		return nil, err
	}
	return cmp, nil
}

// runOpwise executes the program's node list the way an op-serving client
// must: Add/Mul/Rotate each cost one engine round trip (counted), plaintext
// and software-only ops run locally, and every intermediate lives on the
// client between trips. Returns the single output ciphertext.
func runOpwise(params *fv.Params, rk *fv.RelinKey, p *program.Program,
	inputs []*fv.Ciphertext, cmp *programComparison) (*fv.Ciphertext, error) {
	eng, err := engine.New(engine.Config{
		Params:     params,
		Workers:    1, // the op-at-a-time serial floor
		QueueDepth: 16,
		// Both relin-key cache slots stay resident so the opwise side also
		// pays the key stream only once — the comparison isolates round trips
		// and scheduling, not cache pressure.
		KeyCacheSlots: 2,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		eng.Shutdown(ctx)
		cancel()
	}()
	eng.SetRelinKey("", rk)

	ev := fv.NewEvaluator(params)
	plains := program.MaterializePlains(params, p)
	vals := make([]*fv.Ciphertext, p.NumValues())
	copy(vals, inputs)
	ctx := context.Background()
	for i, n := range p.Nodes {
		def := p.NumInputs + i
		switch n.Op {
		case program.OpAdd:
			r, err := eng.Submit(ctx, engine.Op{Kind: engine.OpAdd, A: vals[n.A], B: vals[n.B]})
			if err != nil {
				return nil, err
			}
			vals[def] = r.Ct
			cmp.OpwiseRoundTrips++
		case program.OpMul:
			r, err := eng.Submit(ctx, engine.Op{Kind: engine.OpMul, A: vals[n.A], B: vals[n.B]})
			if err != nil {
				return nil, err
			}
			vals[def] = r.Ct
			cmp.OpwiseRoundTrips++
		case program.OpRotate:
			r, err := eng.Submit(ctx, engine.Op{Kind: engine.OpRotate, A: vals[n.A], G: n.B})
			if err != nil {
				return nil, err
			}
			vals[def] = r.Ct
			cmp.OpwiseRoundTrips++
		case program.OpSub:
			vals[def] = ev.Sub(vals[n.A], vals[n.B])
		case program.OpNeg:
			vals[def] = ev.Neg(vals[n.A])
		case program.OpMulNR:
			vals[def] = ev.MulNoRelin(vals[n.A], vals[n.B])
		case program.OpRelin:
			vals[def] = ev.Relinearize(vals[n.A], rk)
		case program.OpAddPlain:
			vals[def] = ev.AddPlain(vals[n.A], plains[n.B])
		case program.OpMulPlain:
			vals[def] = ev.MulPlain(vals[n.A], plains[n.B])
		default:
			return nil, fmt.Errorf("hebench: unknown opcode %d", uint8(n.Op))
		}
	}
	for _, w := range eng.Stats().PerWorker {
		cmp.OpwiseSerialCycles += w.SimCycles
	}
	return vals[p.Outputs[0]], nil
}

// TestProgramEncSearchWins is the program-mode acceptance gate from the
// issue: one compiled encrypted-search query must cost at least 5x fewer
// round trips than op-at-a-time serving AND finish earlier in simulated
// time — while both sides decrypt to the same, correct value. Every number
// is simulated (round trips are structural, cycles come from the hardware
// model), so the check is exact on any machine.
func TestProgramEncSearchWins(t *testing.T) {
	cmp, err := runProgramComparison()
	if err != nil {
		t.Fatal(err)
	}

	// Correctness before cost: a fast wrong answer must never gate green.
	if cmp.OpwiseValue != cmp.Want {
		t.Fatalf("opwise search decrypted %d, want %d", cmp.OpwiseValue, cmp.Want)
	}
	if cmp.ProgramValue != cmp.Want {
		t.Fatalf("program search decrypted %d, want %d", cmp.ProgramValue, cmp.Want)
	}

	// Round trips: 4 entries x 8-bit keys is 28 AND-tree muls + 3 adds = 31
	// engine admissions opwise; the program is one.
	if cmp.ProgramRoundTrips != 1 {
		t.Fatalf("program round trips = %d, want 1", cmp.ProgramRoundTrips)
	}
	ratio := float64(cmp.OpwiseRoundTrips) / float64(cmp.ProgramRoundTrips)
	if ratio < 5 {
		t.Fatalf("round-trip reduction %.1fx < 5x (opwise %d, program %d)",
			ratio, cmp.OpwiseRoundTrips, cmp.ProgramRoundTrips)
	}

	// Simulated makespan: the wavefront schedule on 2 lanes must beat the
	// one-worker op stream, and its own serial floor must confirm the win
	// came from parallelism, not from dropping work.
	if cmp.ProgramMakespanCycles == 0 || cmp.OpwiseSerialCycles == 0 {
		t.Fatalf("empty measurement: %+v", cmp)
	}
	if cmp.ProgramMakespanCycles >= cmp.OpwiseSerialCycles {
		t.Fatalf("program makespan %d cycles >= opwise serial %d",
			cmp.ProgramMakespanCycles, cmp.OpwiseSerialCycles)
	}
	if cmp.ProgramMakespanCycles >= cmp.ProgramSerialCycles {
		t.Fatalf("makespan %d >= own serial floor %d: no wavefront parallelism",
			cmp.ProgramMakespanCycles, cmp.ProgramSerialCycles)
	}

	// One key stream for the whole program.
	if cmp.KeyLoads != 1 {
		t.Fatalf("program key loads = %d, want 1", cmp.KeyLoads)
	}

	// Determinism: the makespan is pinned exactly — a scheduler regression (a
	// wavefront serializing, a key streamed per node again) moves it — and
	// rerunning must reproduce it bit for bit.
	if cmp.ProgramMakespanCycles != 2853831 {
		t.Errorf("program makespan %d cycles, pinned 2853831", cmp.ProgramMakespanCycles)
	}
	again, err := runProgramComparison()
	if err != nil {
		t.Fatal(err)
	}
	if again.ProgramMakespanCycles != cmp.ProgramMakespanCycles {
		t.Fatalf("makespan moved between runs: %d -> %d",
			cmp.ProgramMakespanCycles, again.ProgramMakespanCycles)
	}
	t.Logf("round trips %dx fewer; makespan %d vs opwise serial %d cycles (%.2fx)",
		int(ratio), cmp.ProgramMakespanCycles, cmp.OpwiseSerialCycles,
		float64(cmp.OpwiseSerialCycles)/float64(cmp.ProgramMakespanCycles))
}
