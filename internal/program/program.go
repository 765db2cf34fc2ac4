// Package program is the circuit-as-a-program layer: an SSA-style
// intermediate representation for homomorphic computations, a builder and a
// boolean-circuit compiler (Bool) that lower whole gate DAGs (encrypted
// search, sorting, voting) into one verifiable
// co-processor program, and a deterministic serialization with a checksum so
// a program can cross the wire and be re-verified on the server.
//
// The point, following the microcoded-accelerator designs the paper's line
// of work grew into (Medha, BASALISC): instead of one network round-trip and
// one engine admission per homomorphic op, the client submits the whole
// computation once. The serving engine (internal/engine.SubmitProgram)
// schedules the DAG's independent subexpressions across its worker pool in
// levelized wavefronts and streams each tenant's evaluation keys once per
// program instead of once per op.
//
// # Representation
//
// A Program is a flat SSA value space: inputs occupy value IDs
// [0, NumInputs), and node i defines value NumInputs+i. Nodes reference only
// earlier values, so the node list is its own topological order and the
// serialization is canonical — byte-identical for the same program, which is
// what makes the trailing checksum meaningful.
package program

import (
	"fmt"

	"repro/internal/fv"
)

// OpCode enumerates the program node operations.
type OpCode uint8

const (
	// OpAdd is ciphertext addition (XOR at t = 2). Operands may be degree 2
	// or 3 (lazy-relinearization sums); the result keeps the larger degree.
	OpAdd OpCode = iota + 1
	// OpSub is ciphertext subtraction.
	OpSub
	// OpNeg is ciphertext negation (unary; B must be 0).
	OpNeg
	// OpMul is the fused multiply + relinearize (degree 2 × 2 → 2); it needs
	// the tenant's relinearization key and consumes one level of depth.
	OpMul
	// OpMulNR is the tensor product without relinearization (2 × 2 → 3).
	OpMulNR
	// OpRelin relinearizes a degree-3 value back to degree 2 (unary).
	OpRelin
	// OpRotate applies the Galois automorphism B (odd, ≥ 3); it needs the
	// tenant's Galois key for that element.
	OpRotate
	// OpAddPlain adds the plaintext-pool entry B to the value A.
	OpAddPlain
	// OpMulPlain multiplies the value A by the plaintext-pool entry B.
	OpMulPlain

	opEnd // one past the last valid opcode
)

func (op OpCode) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpNeg:
		return "neg"
	case OpMul:
		return "mul"
	case OpMulNR:
		return "mulnr"
	case OpRelin:
		return "relin"
	case OpRotate:
		return "rot"
	case OpAddPlain:
		return "addp"
	case OpMulPlain:
		return "mulp"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Node is one program operation. A is always a value ID. B is overloaded by
// opcode — second operand value ID (OpAdd/OpSub/OpMul/OpMulNR), plaintext
// pool index (OpAddPlain/OpMulPlain), Galois element (OpRotate), and 0 for
// the unary OpNeg/OpRelin.
type Node struct {
	Op   OpCode
	A, B int
}

// unary reports whether the node's B field is unused.
func (n Node) unary() bool { return n.Op == OpNeg || n.Op == OpRelin }

// usesPlain reports whether B indexes the plaintext pool.
func (n Node) usesPlain() bool { return n.Op == OpAddPlain || n.Op == OpMulPlain }

// binary reports whether B is a second value operand.
func (n Node) binary() bool {
	switch n.Op {
	case OpAdd, OpSub, OpMul, OpMulNR:
		return true
	}
	return false
}

// Program is one compiled homomorphic computation: NumInputs ciphertext
// inputs, a deduplicated plaintext constant pool, the topologically ordered
// node list, and the output value bindings.
type Program struct {
	NumInputs int
	Plains    [][]uint64
	Nodes     []Node
	Outputs   []int
}

// NumValues returns the size of the SSA value space.
func (p *Program) NumValues() int { return p.NumInputs + len(p.Nodes) }

// Verify checks the program's structural invariants: at least one input and
// one output, every operand reference strictly earlier in the value space
// (so the node list is a valid topological order), plaintext and output
// indices in range, Galois elements odd and ≥ 3, and ciphertext degrees
// consistent (OpMul/OpMulNR take degree-2 operands, OpRelin takes degree 3,
// outputs are degree 2). It is what the server runs on a freshly decoded
// program before admitting it.
func (p *Program) Verify() error {
	if p.NumInputs <= 0 {
		return fmt.Errorf("program: no inputs")
	}
	if len(p.Outputs) == 0 {
		return fmt.Errorf("program: no outputs")
	}
	// deg[v] is the ciphertext element count of value v (inputs are fresh
	// degree-2 ciphertexts).
	deg := make([]uint8, p.NumValues())
	for v := 0; v < p.NumInputs; v++ {
		deg[v] = 2
	}
	for i, n := range p.Nodes {
		def := p.NumInputs + i
		if n.Op == 0 || n.Op >= opEnd {
			return fmt.Errorf("program: node %d: unknown opcode %d", i, uint8(n.Op))
		}
		if n.A < 0 || n.A >= def {
			return fmt.Errorf("program: node %d (%v): operand A=%d out of range [0,%d)", i, n.Op, n.A, def)
		}
		switch {
		case n.binary():
			if n.B < 0 || n.B >= def {
				return fmt.Errorf("program: node %d (%v): operand B=%d out of range [0,%d)", i, n.Op, n.B, def)
			}
		case n.usesPlain():
			if n.B < 0 || n.B >= len(p.Plains) {
				return fmt.Errorf("program: node %d (%v): plaintext index %d out of range [0,%d)", i, n.Op, n.B, len(p.Plains))
			}
		case n.Op == OpRotate:
			if n.B < 3 || n.B%2 == 0 {
				return fmt.Errorf("program: node %d: Galois element %d must be odd and >= 3", i, n.B)
			}
		default: // unary
			if n.B != 0 {
				return fmt.Errorf("program: node %d (%v): unary node with B=%d", i, n.Op, n.B)
			}
		}
		switch n.Op {
		case OpAdd, OpSub:
			deg[def] = maxU8(deg[n.A], deg[n.B])
		case OpNeg, OpRotate, OpAddPlain, OpMulPlain:
			deg[def] = deg[n.A]
		case OpMul, OpMulNR:
			if deg[n.A] != 2 || deg[n.B] != 2 {
				return fmt.Errorf("program: node %d (%v): needs degree-2 operands, got %d and %d", i, n.Op, deg[n.A], deg[n.B])
			}
			if n.Op == OpMul {
				deg[def] = 2
			} else {
				deg[def] = 3
			}
		case OpRelin:
			if deg[n.A] != 3 {
				return fmt.Errorf("program: node %d: relin needs a degree-3 operand, got degree %d", i, deg[n.A])
			}
			deg[def] = 2
		}
		if n.Op == OpRotate && deg[n.A] != 2 {
			return fmt.Errorf("program: node %d: rotate needs a degree-2 operand, got degree %d", i, deg[n.A])
		}
	}
	for i, out := range p.Outputs {
		if out < 0 || out >= p.NumValues() {
			return fmt.Errorf("program: output %d: value %d out of range [0,%d)", i, out, p.NumValues())
		}
		if deg[out] != 2 {
			return fmt.Errorf("program: output %d: value %d has degree %d (relinearize before output)", i, out, deg[out])
		}
	}
	return nil
}

// CheckParams checks the program against a concrete parameter set: every
// plaintext-pool entry must have exactly n coefficients, all below t, and
// every Galois element must be a valid automorphism index (< 2n). Decoupled
// from Verify so a program can be built, serialized, and inspected without a
// parameter set, but never executed against the wrong one.
func (p *Program) CheckParams(params *fv.Params) error {
	n, t := params.N(), params.T()
	for i, pl := range p.Plains {
		if len(pl) != n {
			return fmt.Errorf("program: plaintext %d has %d coefficients, parameter set needs %d", i, len(pl), n)
		}
		for c, v := range pl {
			if v >= t {
				return fmt.Errorf("program: plaintext %d coefficient %d = %d >= t = %d", i, c, v, t)
			}
		}
	}
	for i, nd := range p.Nodes {
		if nd.Op == OpRotate && nd.B >= 2*n {
			return fmt.Errorf("program: node %d: Galois element %d >= 2n = %d", i, nd.B, 2*n)
		}
	}
	return nil
}

// GaloisElements returns the distinct Galois elements the program rotates
// by, in first-use order — the key set the engine streams once per program.
func (p *Program) GaloisElements() []int {
	var gs []int
	seen := map[int]bool{}
	for _, n := range p.Nodes {
		if n.Op == OpRotate && !seen[n.B] {
			seen[n.B] = true
			gs = append(gs, n.B)
		}
	}
	return gs
}

// NeedsRelinKey reports whether any node consumes the relinearization key.
func (p *Program) NeedsRelinKey() bool {
	for _, n := range p.Nodes {
		if n.Op == OpMul || n.Op == OpRelin {
			return true
		}
	}
	return false
}

func maxU8(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
