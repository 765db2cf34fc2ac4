package program

import (
	"fmt"

	"repro/internal/fv"
)

// TableEntry is one row of an encrypted-search table: a key the query is
// matched against and the (public, server-side) value returned on a match.
type TableEntry struct {
	Key   uint64
	Value int64
}

// CompileEncSearch compiles the paper's encrypted-search workload into one
// program: the client submits its keyBits-bit query as encrypted bits
// (little-endian, the program's inputs) and receives a single ciphertext
// that decrypts to the matched entry's value (0 on no match, the sum on
// multiple matches).
//
// Per entry: the match bit is EqualConst against the known key (free for
// 1-bits, one plaintext op for 0-bits, then an AND tree of keyBits-1 muls,
// depth ⌈log2 keyBits⌉); the result is the Σ match·encode(value), with the
// value multiplied in as a plaintext. Multiplicative depth is
// ⌈log2 keyBits⌉ — for 16-bit keys exactly the depth-4 sizing of the
// paper's Sec. III-A.
func CompileEncSearch(params *fv.Params, table []TableEntry, keyBits int) (*Program, error) {
	if len(table) == 0 || keyBits <= 0 || keyBits > 64 {
		return nil, fmt.Errorf("program: encrypted search needs a non-empty table and 1..64 key bits")
	}
	b := NewBuilder()
	c, err := NewBool(b, params)
	if err != nil {
		return nil, err
	}
	query := c.InputWord(keyBits)

	enc := fv.NewIntegerEncoder(params)
	var acc Value
	for i, e := range table {
		match, err := c.EqualConst(query, e.Key)
		if err != nil {
			return nil, err
		}
		// match · encode(value): the value polynomial rides in the constant
		// pool; one plaintext multiplication instead of log2(value) muls.
		valPt := enc.Encode(e.Value)
		term := b.MulPlain(match.V, b.Plaintext(valPt.Coeffs))
		if i == 0 {
			acc = term
		} else {
			acc = b.Add(acc, term)
		}
	}
	b.Output(acc)
	return b.Build()
}

// CompileAddTree compiles a balanced addition tree over n ciphertext inputs
// into one program with a single output — the encrypted-voting tally (adds
// only: zero multiplicative depth, log2(n) wavefronts). Works at any t.
func CompileAddTree(n int) (*Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("program: add tree needs at least one input")
	}
	b := NewBuilder()
	layer := b.Inputs(n)
	for len(layer) > 1 {
		var next []Value
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, b.Add(layer[i], layer[i+1]))
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	b.Output(layer[0])
	return b.Build()
}
