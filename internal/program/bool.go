package program

import (
	"fmt"

	"repro/internal/fv"
)

// Bool lowers boolean circuits onto a Builder — the workload class the
// paper's parameter set targets ("evaluation of low-complexity block cipher
// such as Rasta on ciphertext, private information retrieval or encrypted
// search..., encrypted sorting", Sec. III-A). At t = 2 XOR is a homomorphic
// addition (free), AND a homomorphic multiplication (consumes depth), and
// everything else is built from those two plus the constant 1. Each Bit
// tracks its multiplicative depth so callers can budget circuits against
// Params.SupportedDepth(); the built program's Analyze().Counts is the cost
// ledger (ANDs = Muls, XORs = Adds, NOTs = PlainOps).
type Bool struct {
	B *Builder
	// one is the interned constant-1 plaintext, used by Not (¬a = 1 ⊕ a at
	// t = 2).
	one Plain
}

// NewBool wraps a builder for boolean lowering under params, which must have
// t = 2: at any other plaintext modulus addition is not XOR and the program
// would compute something else without complaint.
func NewBool(b *Builder, params *fv.Params) (*Bool, error) {
	if params.T() != 2 {
		return nil, fmt.Errorf("program: boolean circuits require t = 2, got t = %d", params.T())
	}
	one := make([]uint64, params.N())
	one[0] = 1
	return &Bool{B: b, one: b.Plaintext(one)}, nil
}

// Bit is one encrypted bit in the program being built, with its
// multiplicative depth (0 for fresh inputs).
type Bit struct {
	V     Value
	Depth int
}

// Word is a little-endian vector of program bits.
type Word []Bit

// MaxDepth returns the largest bit depth in the word.
func (w Word) MaxDepth() int {
	d := 0
	for _, b := range w {
		if b.Depth > d {
			d = b.Depth
		}
	}
	return d
}

// InputWord declares k fresh input bits (little-endian).
func (c *Bool) InputWord(k int) Word {
	w := make(Word, k)
	for i := range w {
		w[i] = Bit{V: c.B.Input()}
	}
	return w
}

// Xor emits a ⊕ b.
func (c *Bool) Xor(a, b Bit) Bit {
	return Bit{V: c.B.Add(a.V, b.V), Depth: maxInt(a.Depth, b.Depth)}
}

// And emits a ∧ b (one multiplication; consumes depth).
func (c *Bool) And(a, b Bit) Bit {
	return Bit{V: c.B.Mul(a.V, b.V), Depth: maxInt(a.Depth, b.Depth) + 1}
}

// Not emits ¬a = 1 ⊕ a.
func (c *Bool) Not(a Bit) Bit {
	return Bit{V: c.B.AddPlain(a.V, c.one), Depth: a.Depth}
}

// Or emits a ∨ b = a ⊕ b ⊕ (a ∧ b).
func (c *Bool) Or(a, b Bit) Bit {
	return c.Xor(c.Xor(a, b), c.And(a, b))
}

// Xnor emits ¬(a ⊕ b), the bit-equality gate.
func (c *Bool) Xnor(a, b Bit) Bit {
	return c.Not(c.Xor(a, b))
}

// Mux emits sel ? a : b = b ⊕ sel·(a ⊕ b).
func (c *Bool) Mux(sel, a, b Bit) Bit {
	return c.Xor(b, c.And(sel, c.Xor(a, b)))
}

// Equal emits the k-bit equality of a and b: the AND-tree over the bitwise
// XNORs, depth ⌈log2 k⌉ above the inputs.
func (c *Bool) Equal(a, b Word) (Bit, error) {
	if len(a) != len(b) || len(a) == 0 {
		return Bit{}, fmt.Errorf("program: Equal needs equal-length non-empty words")
	}
	layer := make([]Bit, len(a))
	for i := range a {
		layer[i] = c.Xnor(a[i], b[i])
	}
	return c.andTree(layer), nil
}

// EqualConst emits the equality of word a against the known constant k: bits
// of k that are 1 pass the query bit through unchanged, bits that are 0 are
// negated — the linear trick the encrypted-search example uses, saving one
// XOR per known bit over the two-ciphertext XNOR.
func (c *Bool) EqualConst(a Word, k uint64) (Bit, error) {
	if len(a) == 0 {
		return Bit{}, fmt.Errorf("program: EqualConst needs a non-empty word")
	}
	layer := make([]Bit, len(a))
	for i := range a {
		if (k>>i)&1 == 1 {
			layer[i] = a[i]
		} else {
			layer[i] = c.Not(a[i])
		}
	}
	return c.andTree(layer), nil
}

// andTree reduces a layer of bits with a balanced AND tree.
func (c *Bool) andTree(layer []Bit) Bit {
	for len(layer) > 1 {
		var next []Bit
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, c.And(layer[i], layer[i+1]))
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	return layer[0]
}

// AddWord emits the k-bit ripple-carry sum a + b, returning the sum word and
// the carry-out.
func (c *Bool) AddWord(a, b Word) (Word, Bit, error) {
	if len(a) != len(b) || len(a) == 0 {
		return nil, Bit{}, fmt.Errorf("program: AddWord needs equal-length non-empty words")
	}
	sum := make(Word, len(a))
	var carry Bit
	for i := range a {
		axb := c.Xor(a[i], b[i])
		if i == 0 {
			sum[i] = axb
			carry = c.And(a[i], b[i])
			continue
		}
		sum[i] = c.Xor(axb, carry)
		carry = c.Xor(c.And(a[i], b[i]), c.And(carry, axb))
	}
	return sum, carry, nil
}

// LessThan emits the unsigned comparison a < b by MSB-first scan.
func (c *Bool) LessThan(a, b Word) (Bit, error) {
	if len(a) != len(b) || len(a) == 0 {
		return Bit{}, fmt.Errorf("program: LessThan needs equal-length non-empty words")
	}
	k := len(a)
	lt := c.And(c.Not(a[k-1]), b[k-1])
	eq := c.Xnor(a[k-1], b[k-1])
	for i := k - 2; i >= 0; i-- {
		bitLt := c.And(c.Not(a[i]), b[i])
		lt = c.Xor(lt, c.And(eq, bitLt))
		if i > 0 {
			eq = c.And(eq, c.Xnor(a[i], b[i]))
		}
	}
	return lt, nil
}

// CompareSwap emits the oblivious (min, max) of two words.
func (c *Bool) CompareSwap(a, b Word) (lo, hi Word, err error) {
	lt, err := c.LessThan(a, b)
	if err != nil {
		return nil, nil, err
	}
	lo = make(Word, len(a))
	hi = make(Word, len(a))
	for i := range a {
		lo[i] = c.Mux(lt, a[i], b[i])
		hi[i] = c.Mux(lt, b[i], a[i])
	}
	return lo, hi, nil
}

// SortNetwork emits an odd-even transposition sort over the words.
func (c *Bool) SortNetwork(words []Word) ([]Word, error) {
	out := append([]Word(nil), words...)
	n := len(out)
	for round := 0; round < n; round++ {
		start := round % 2
		for i := start; i+1 < n; i += 2 {
			lo, hi, err := c.CompareSwap(out[i], out[i+1])
			if err != nil {
				return nil, err
			}
			out[i], out[i+1] = lo, hi
		}
	}
	return out, nil
}

// OutputWord binds every bit of w as consecutive program outputs.
func (c *Bool) OutputWord(w Word) {
	for _, b := range w {
		c.B.Output(b.V)
	}
}
