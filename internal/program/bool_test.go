package program

import (
	"sort"
	"testing"

	"repro/internal/fv"
	"repro/internal/sampler"
)

// boolEnv is a deep-circuit parameter set for the boolean lowering tests:
// n = 512 with a 10-prime q (≈ 300 bits) supports the linear-depth
// comparators. Security is irrelevant for these functional tests.
type boolEnv struct {
	p   *fv.Params
	rk  *fv.RelinKey
	enc *fv.Encryptor
	dec *fv.Decryptor
}

var boolEnvCache *boolEnv

func deepBoolEnv(t testing.TB) *boolEnv {
	t.Helper()
	if boolEnvCache != nil {
		return boolEnvCache
	}
	cfg := fv.Config{N: 512, T: 2, QCount: 10, PCount: 11, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 11}
	p, err := fv.NewParams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(7)
	sk, pk, rk := fv.NewKeyGenerator(p, prng).GenKeys()
	boolEnvCache = &boolEnv{p: p, rk: rk, enc: fv.NewEncryptor(p, pk, prng), dec: fv.NewDecryptor(p, sk)}
	return boolEnvCache
}

// circuit starts a boolean program under the environment's parameters.
func (e *boolEnv) circuit(t testing.TB) *Bool {
	t.Helper()
	c, err := NewBool(NewBuilder(), e.p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bits splits the k low bits of v, little-endian — one program input each.
func bits(v uint64, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = (v >> i) & 1
	}
	return out
}

// word reassembles little-endian bits into an integer.
func word(bs []uint64) uint64 {
	var v uint64
	for i, b := range bs {
		v |= b << i
	}
	return v
}

// run builds the circuit, encrypts one ciphertext per input bit, executes the
// program through the reference interpreter, and decrypts every output bit.
func (e *boolEnv) run(t testing.TB, c *Bool, in []uint64) []uint64 {
	t.Helper()
	p, err := c.B.Build()
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*fv.Ciphertext, len(in))
	for i, v := range in {
		pt := fv.NewPlaintext(e.p)
		pt.Coeffs[0] = v & 1
		cts[i] = e.enc.Encrypt(pt)
	}
	outs, err := Run(e.p, p, cts, Keys{Relin: e.rk})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, len(outs))
	for i, ct := range outs {
		got[i] = e.dec.Decrypt(ct).Coeffs[0] & 1
	}
	// The interpreter must leave its inputs alone.
	for i, v := range in {
		if e.dec.Decrypt(cts[i]).Coeffs[0]&1 != v&1 {
			t.Fatalf("input %d mutated by Run", i)
		}
	}
	return got
}

func TestBoolRequiresBinaryPlaintext(t *testing.T) {
	p, err := fv.NewParams(fv.TestConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBool(NewBuilder(), p); err == nil {
		t.Fatal("t=17 accepted for boolean circuits")
	}
}

func TestBoolGateTruthTables(t *testing.T) {
	e := deepBoolEnv(t)
	for _, a := range []uint64{0, 1} {
		for _, b := range []uint64{0, 1} {
			c := e.circuit(t)
			in := c.InputWord(2)
			c.OutputWord(Word{c.Xor(in[0], in[1]), c.And(in[0], in[1]), c.Or(in[0], in[1]), c.Xnor(in[0], in[1]), c.Not(in[0])})
			got := e.run(t, c, []uint64{a, b})
			want := []uint64{a ^ b, a & b, a | b, 1 ^ a ^ b, 1 ^ a}
			for i, gate := range []string{"XOR", "AND", "OR", "XNOR", "NOT"} {
				if got[i] != want[i] {
					t.Fatalf("%s(%d,%d) = %d, want %d", gate, a, b, got[i], want[i])
				}
			}
		}
	}
}

func TestBoolMuxSelects(t *testing.T) {
	e := deepBoolEnv(t)
	for v := uint64(0); v < 8; v++ {
		c := e.circuit(t)
		in := c.InputWord(3) // sel, a, b
		c.OutputWord(Word{c.Mux(in[0], in[1], in[2])})
		sel, a, b := v&1, (v>>1)&1, (v>>2)&1
		want := b
		if sel == 1 {
			want = a
		}
		if got := e.run(t, c, bits(v, 3))[0]; got != want {
			t.Fatalf("MUX(%d;%d,%d) = %d, want %d", sel, a, b, got, want)
		}
	}
}

func TestBoolEqualDepthAndResult(t *testing.T) {
	e := deepBoolEnv(t)
	const k = 8
	cases := []struct{ a, b uint64 }{{0xA5, 0xA5}, {0xA5, 0xA4}, {0, 0xFF}, {7, 7}}
	for _, tc := range cases {
		c := e.circuit(t)
		eq, err := c.Equal(c.InputWord(k), c.InputWord(k))
		if err != nil {
			t.Fatal(err)
		}
		c.OutputWord(Word{eq})
		want := uint64(0)
		if tc.a == tc.b {
			want = 1
		}
		if got := e.run(t, c, append(bits(tc.a, k), bits(tc.b, k)...))[0]; got != want {
			t.Fatalf("Equal(%#x,%#x) = %d, want %d", tc.a, tc.b, got, want)
		}
		// Depth of an 8-bit equality tree is exactly 3 (16-bit would be the
		// paper's depth-4 circuit).
		if eq.Depth != 3 {
			t.Fatalf("8-bit equality depth %d, want 3", eq.Depth)
		}
	}
}

func TestBoolRippleAdder(t *testing.T) {
	e := deepBoolEnv(t)
	const k = 4
	cases := []struct{ a, b uint64 }{{3, 5}, {15, 1}, {0, 0}, {9, 9}, {15, 15}}
	for _, tc := range cases {
		c := e.circuit(t)
		sum, carry, err := c.AddWord(c.InputWord(k), c.InputWord(k))
		if err != nil {
			t.Fatal(err)
		}
		c.OutputWord(append(sum, carry))
		if got := word(e.run(t, c, append(bits(tc.a, k), bits(tc.b, k)...))); got != tc.a+tc.b {
			t.Fatalf("%d + %d = %d homomorphically", tc.a, tc.b, got)
		}
	}
}

func TestBoolLessThan(t *testing.T) {
	e := deepBoolEnv(t)
	const k = 4
	for a := uint64(0); a < 16; a += 3 {
		for b := uint64(0); b < 16; b += 5 {
			c := e.circuit(t)
			lt, err := c.LessThan(c.InputWord(k), c.InputWord(k))
			if err != nil {
				t.Fatal(err)
			}
			c.OutputWord(Word{lt})
			want := uint64(0)
			if a < b {
				want = 1
			}
			if got := e.run(t, c, append(bits(a, k), bits(b, k)...))[0]; got != want {
				t.Fatalf("(%d < %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestBoolSortNetwork(t *testing.T) {
	e := deepBoolEnv(t)
	const k = 3
	values := []uint64{6, 1, 7, 3}
	c := e.circuit(t)
	words := make([]Word, len(values))
	var in []uint64
	for i, v := range values {
		words[i] = c.InputWord(k)
		in = append(in, bits(v, k)...)
	}
	sorted, err := c.SortNetwork(words)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sorted {
		c.OutputWord(w)
	}
	got := e.run(t, c, in)
	want := append([]uint64(nil), values...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if w := word(got[i*k : (i+1)*k]); w != want[i] {
			t.Fatalf("position %d: %d, want %d", i, w, want[i])
		}
	}
	p, err := c.B.Build()
	if err != nil {
		t.Fatal(err)
	}
	cost := p.Analyze().Counts
	if cost.Muls == 0 || cost.Adds == 0 || cost.PlainOps == 0 {
		t.Fatalf("cost ledger did not advance in every category: %+v", cost)
	}
	t.Logf("encrypted sort of %d %d-bit values: %+v (total %d ops), output depth %d",
		len(values), k, cost, cost.Total(), sorted[0].MaxDepth())
}

func TestBoolWordValidation(t *testing.T) {
	c := deepBoolEnv(t).circuit(t)
	w1, w2 := c.InputWord(4), c.InputWord(5)
	if _, err := c.Equal(w1, w2); err == nil {
		t.Fatal("length mismatch accepted by Equal")
	}
	if _, _, err := c.AddWord(w1, w2); err == nil {
		t.Fatal("length mismatch accepted by AddWord")
	}
	if _, err := c.LessThan(nil, nil); err == nil {
		t.Fatal("empty words accepted by LessThan")
	}
}
