package sampler

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"repro/internal/ring"
)

func testMods(t testing.TB) []ring.Modulus {
	primes, err := ring.GenerateNTTPrimes(30, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]ring.Modulus, len(primes))
	for i, p := range primes {
		mods[i] = ring.NewModulus(p)
	}
	return mods
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := NewPRNG(42), NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewPRNG(43)
	same := 0
	a = NewPRNG(42)
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical words", same)
	}
}

func TestPRNGRefillBoundary(t *testing.T) {
	// Draw more than one buffer's worth and confirm no repetition window.
	p := NewPRNG(7)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		v := p.Uint64()
		if seen[v] {
			t.Fatalf("repeated 64-bit output after %d draws (PRNG broken)", i)
		}
		seen[v] = true
	}
}

func TestUint64nRangeAndUniformity(t *testing.T) {
	p := NewPRNG(1)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := p.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n returned %d ≥ %d", v, n)
		}
		counts[v]++
	}
	for v, c := range counts {
		// Expected 10000 each; allow ±5σ ≈ ±475.
		if c < 9500 || c > 10500 {
			t.Fatalf("value %d drawn %d times, expected ≈ %d", v, c, draws/n)
		}
	}
	// Power-of-two path.
	for i := 0; i < 1000; i++ {
		if v := p.Uint64n(16); v >= 16 {
			t.Fatalf("power-of-two path out of range: %d", v)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	p := NewPRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Uint64n(0)
}

func TestBits(t *testing.T) {
	p := NewPRNG(2)
	for k := uint(0); k <= 64; k++ {
		v := p.Bits(k)
		if k < 64 && v >= 1<<k {
			t.Fatalf("Bits(%d) = %d out of range", k, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > 64")
		}
	}()
	p.Bits(65)
}

func TestGaussianMoments(t *testing.T) {
	const sigma = 102.0
	g := NewGaussian(sigma)
	p := NewPRNG(3)
	const draws = 200000
	var sum, sumSq float64
	maxAbs := int64(0)
	for i := 0; i < draws; i++ {
		v := g.Sample(p)
		sum += float64(v)
		sumSq += float64(v) * float64(v)
		if v < 0 && -v > maxAbs {
			maxAbs = -v
		} else if v > maxAbs {
			maxAbs = v
		}
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	// Mean should be ~0 within 5σ/√draws ≈ 1.15.
	if math.Abs(mean) > 1.2 {
		t.Fatalf("mean = %f, expected ≈ 0", mean)
	}
	// Standard deviation within 2% of σ.
	if sd := math.Sqrt(variance); math.Abs(sd-sigma) > 0.02*sigma {
		t.Fatalf("sd = %f, expected ≈ %f", sd, sigma)
	}
	if maxAbs > g.TailBound() {
		t.Fatalf("sample %d beyond tail bound %d", maxAbs, g.TailBound())
	}
}

func TestGaussianSmallSigma(t *testing.T) {
	g := NewGaussian(0.5)
	p := NewPRNG(4)
	counts := map[int64]int{}
	for i := 0; i < 50000; i++ {
		counts[g.Sample(p)]++
	}
	// P(0) ≈ 0.6827 for σ=0.5 discrete Gaussian; just check dominance and
	// symmetry within 10%.
	if counts[0] < 25000 {
		t.Fatalf("P(0) too small: %d/50000", counts[0])
	}
	if p1, m1 := counts[1], counts[-1]; math.Abs(float64(p1-m1)) > 0.2*float64(p1+m1)/2+200 {
		t.Fatalf("asymmetric: P(1)=%d P(-1)=%d", p1, m1)
	}
}

func TestGaussianInvalidSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGaussian(0)
}

func TestSamplePolyConsistentRows(t *testing.T) {
	mods := testMods(t)
	g := NewGaussian(3.2)
	p := NewPRNG(5)
	e := g.SamplePoly(p, mods, 256)
	// Every row must represent the same small signed integer.
	for j := 0; j < 256; j++ {
		v := mods[0].Centered(e.Rows[0].Coeffs[j])
		for i := 1; i < len(mods); i++ {
			if got := mods[i].Centered(e.Rows[i].Coeffs[j]); got != v {
				t.Fatalf("coeff %d: row 0 says %d, row %d says %d", j, v, i, got)
			}
		}
	}
}

func TestSignedBinaryPoly(t *testing.T) {
	mods := testMods(t)
	p := NewPRNG(6)
	u := SignedBinaryPoly(p, mods, 256)
	counts := map[int64]int{}
	for j := 0; j < 256; j++ {
		v := mods[0].Centered(u.Rows[0].Coeffs[j])
		if v < -1 || v > 1 {
			t.Fatalf("coefficient %d out of {-1,0,1}", v)
		}
		counts[v]++
		for i := 1; i < len(mods); i++ {
			if mods[i].Centered(u.Rows[i].Coeffs[j]) != v {
				t.Fatal("rows disagree")
			}
		}
	}
	for _, v := range []int64{-1, 0, 1} {
		if counts[v] == 0 {
			t.Fatalf("value %d never sampled in 256 draws", v)
		}
	}
}

func TestBinaryPoly(t *testing.T) {
	mods := testMods(t)
	p := NewPRNG(7)
	b := BinaryPoly(p, mods, 256)
	ones := 0
	for j := 0; j < 256; j++ {
		v := b.Rows[0].Coeffs[j]
		if v > 1 {
			t.Fatalf("non-binary coefficient %d", v)
		}
		ones += int(v)
	}
	if ones < 96 || ones > 160 {
		t.Fatalf("suspicious bit balance: %d/256 ones", ones)
	}
}

func TestUniformPolyIndependentRows(t *testing.T) {
	mods := testMods(t)
	p := NewPRNG(8)
	u := UniformPoly(p, mods, 256)
	for i, m := range mods {
		var max uint64
		for _, c := range u.Rows[i].Coeffs {
			if c >= m.Q {
				t.Fatalf("row %d coefficient ≥ q", i)
			}
			if c > max {
				max = c
			}
		}
		if max < m.Q/4 {
			t.Fatalf("row %d: max coefficient %d suspiciously small", i, max)
		}
	}
	// Rows should differ (independent, unlike the small-poly samplers).
	if u.Rows[0].Equal(u.Rows[1]) {
		t.Fatal("uniform rows identical")
	}
}

func TestNewRandomPRNG(t *testing.T) {
	a, b := NewRandomPRNG(), NewRandomPRNG()
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("two OS-seeded PRNGs emitted identical words twice")
	}
}

// TestNewRandomPRNGUsesTheFullKey swaps in the entropy reader: all 16 bytes
// it hands over are the AES key, so two draws that differ only in key bytes
// 8–15 give different streams, and a draw of NewPRNG(seed)'s derived key
// gives NewPRNG(seed)'s stream.
func TestNewRandomPRNGUsesTheFullKey(t *testing.T) {
	defer func(r io.Reader) { entropy = r }(entropy)
	const seed = 42
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:], seed^0x9e3779b97f4a7c15)
	other := key
	other[15] ^= 1
	entropy = bytes.NewReader(append(key[:], other[:]...))
	a, b, ref := NewRandomPRNG(), NewRandomPRNG(), NewPRNG(seed)
	for i := 0; i < 4; i++ {
		av, bv, rv := a.Uint64(), b.Uint64(), ref.Uint64()
		if av != rv {
			t.Fatalf("word %d: keyed with NewPRNG(%d)'s key, got %#x, want %#x", i, seed, av, rv)
		}
		if av == bv {
			t.Fatalf("word %d: a flip in key byte 15 left the stream at %#x", i, av)
		}
	}
	entropy = bytes.NewReader(make([]byte, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("NewRandomPRNG accepted an 8-byte key")
		}
	}()
	NewRandomPRNG()
}

func BenchmarkGaussianSample(b *testing.B) {
	g := NewGaussian(102)
	p := NewPRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Sample(p)
	}
}

func BenchmarkUniformPoly4096(b *testing.B) {
	primes, err := ring.GenerateNTTPrimes(30, 4096, 6)
	if err != nil {
		b.Fatal(err)
	}
	mods := make([]ring.Modulus, len(primes))
	for i, pr := range primes {
		mods[i] = ring.NewModulus(pr)
	}
	p := NewPRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UniformPoly(p, mods, 4096)
	}
}

func TestSparseTernaryPoly(t *testing.T) {
	mods := testMods(t)
	p := NewPRNG(9)
	const n, h = 256, 64
	s := SparseTernaryPoly(p, mods, n, h)
	nonzero := 0
	for j := 0; j < n; j++ {
		v := mods[0].Centered(s.Rows[0].Coeffs[j])
		if v < -1 || v > 1 {
			t.Fatalf("coefficient %d out of {-1,0,1}", v)
		}
		if v != 0 {
			nonzero++
		}
		for i := 1; i < len(mods); i++ {
			if mods[i].Centered(s.Rows[i].Coeffs[j]) != v {
				t.Fatal("rows disagree")
			}
		}
	}
	if nonzero != h {
		t.Fatalf("hamming weight %d, want %d", nonzero, h)
	}
	// Degenerate weights.
	if z := SparseTernaryPoly(p, mods, 16, 0); !z.Equal(SparseTernaryPoly(p, mods, 16, 0)) {
		t.Fatal("zero-weight polynomials should all be zero")
	}
	full := SparseTernaryPoly(p, mods, 16, 16)
	for j := 0; j < 16; j++ {
		if mods[0].Centered(full.Rows[0].Coeffs[j]) == 0 {
			t.Fatal("full-weight polynomial has a zero coefficient")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for weight > n")
		}
	}()
	SparseTernaryPoly(p, mods, 16, 17)
}
