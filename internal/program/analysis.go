package program

import (
	"repro/internal/fv"
)

// Counts is the per-op cost ledger of a program. Muls is the cost metric the
// paper's workload discussion leads with (Rasta's selling point is "low
// AND-depth and few ANDs per bit"), but adds and plaintext ops are not free
// on the co-processor either.
type Counts struct {
	// Muls counts depth-consuming ciphertext multiplications (OpMul and
	// OpMulNR) — the AND count of a boolean circuit.
	Muls int
	// Adds counts ciphertext additions and subtractions (OpAdd, OpSub) — the
	// XOR count of a boolean circuit.
	Adds int
	// PlainOps counts plaintext-operand and unary ops (OpAddPlain,
	// OpMulPlain, OpNeg).
	PlainOps int
	// Rotations counts Galois automorphisms.
	Rotations int
	// Relins counts standalone relinearizations (OpRelin; the relin fused
	// into OpMul is part of Muls).
	Relins int
}

// Total returns the node count the ledger accounts for.
func (c Counts) Total() int { return c.Muls + c.Adds + c.PlainOps + c.Rotations + c.Relins }

// Analysis is the dependence structure of a program: per-value
// multiplicative depth, the levelized wavefronts (all nodes in one level are
// mutually independent and every operand lives in an earlier level), the
// critical path, and the cost ledger. The engine's scheduler dispatches one
// level at a time; the width of each level is the available parallelism.
type Analysis struct {
	// Depth[v] is the multiplicative depth of value v (inputs are 0; OpMul
	// and OpMulNR add one; everything else preserves the operand maximum).
	Depth []int
	// Level[v] is the wavefront index of value v: 0 for inputs, and
	// 1 + max(operand levels) for node-defined values.
	Level []int
	// Levels groups node indices (not value IDs) by wavefront, ascending;
	// Levels[0] is the set of nodes depending only on inputs.
	Levels [][]int
	// MaxDepth is the largest output depth — what to budget against
	// Params.SupportedDepth().
	MaxDepth int
	// CriticalPath is the number of wavefronts (the makespan lower bound in
	// node-executions on an unbounded pool).
	CriticalPath int
	Counts       Counts
}

// Analyze computes the dependence analysis in one pass over the node list
// (valid because the list is topologically ordered; Verify enforces that).
func (p *Program) Analyze() *Analysis {
	a := &Analysis{
		Depth: make([]int, p.NumValues()),
		Level: make([]int, p.NumValues()),
	}
	for i, n := range p.Nodes {
		def := p.NumInputs + i
		depth := a.Depth[n.A]
		level := a.Level[n.A]
		if n.binary() {
			depth = maxInt(depth, a.Depth[n.B])
			level = maxInt(level, a.Level[n.B])
		}
		switch n.Op {
		case OpMul, OpMulNR:
			depth++
			a.Counts.Muls++
		case OpAdd, OpSub:
			a.Counts.Adds++
		case OpNeg, OpAddPlain, OpMulPlain:
			a.Counts.PlainOps++
		case OpRotate:
			a.Counts.Rotations++
		case OpRelin:
			a.Counts.Relins++
		}
		a.Depth[def] = depth
		a.Level[def] = level + 1
		lvl := level // node i sits in wavefront index `level` (0-based)
		for len(a.Levels) <= lvl {
			a.Levels = append(a.Levels, nil)
		}
		a.Levels[lvl] = append(a.Levels[lvl], i)
	}
	for _, out := range p.Outputs {
		if a.Depth[out] > a.MaxDepth {
			a.MaxDepth = a.Depth[out]
		}
	}
	a.CriticalPath = len(a.Levels)
	return a
}

// PredictBudget walks the program through the fv noise model starting every
// input at inputBudget bits and returns the smallest predicted output
// budget. Plaintext multiplication is approximated conservatively as a full
// ciphertext multiplication against a fresh operand (its real growth is
// smaller); plaintext addition and negation are approximated as an addition.
// The engine's noise guardrail screens hinted programs with this before
// executing anything.
func (p *Program) PredictBudget(m *fv.NoiseModel, inputBudget float64) float64 {
	budget := make([]float64, p.NumValues())
	for v := 0; v < p.NumInputs; v++ {
		budget[v] = inputBudget
	}
	for i, n := range p.Nodes {
		def := p.NumInputs + i
		switch n.Op {
		case OpAdd, OpSub:
			budget[def] = m.AfterAdd(budget[n.A], budget[n.B])
		case OpNeg, OpAddPlain:
			budget[def] = m.AfterAdd(budget[n.A], budget[n.A])
		case OpMul, OpMulNR:
			budget[def] = m.AfterMul(budget[n.A], budget[n.B])
		case OpMulPlain:
			budget[def] = m.AfterMul(budget[n.A], m.Fresh())
		case OpRelin:
			budget[def] = budget[n.A]
		case OpRotate:
			budget[def] = m.AfterGalois(budget[n.A])
		}
	}
	min := budget[p.Outputs[0]]
	for _, out := range p.Outputs[1:] {
		if budget[out] < min {
			min = budget[out]
		}
	}
	return min
}
