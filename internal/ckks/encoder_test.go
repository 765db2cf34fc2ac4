package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func testParams(t *testing.T) *Params {
	t.Helper()
	p, err := NewParams(TestConfig())
	if err != nil {
		t.Fatalf("NewParams: %v", err)
	}
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := testParams(t)
	e := NewEncoder(p)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = rng.Float64()*4 - 2
	}
	pt, err := e.Encode(vals, p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got := e.Decode(pt)
	for i := range vals {
		if d := math.Abs(got[i] - vals[i]); d > 1e-6 {
			t.Fatalf("slot %d: %g vs %g (|Δ| = %g)", i, got[i], vals[i], d)
		}
	}
}

// The special FFT must agree with the textbook canonical embedding: slot j
// is the message polynomial evaluated at ζ^{5^j} for ζ = exp(πi/n).
func TestEncoderMatchesNaiveEmbedding(t *testing.T) {
	p := testParams(t)
	e := NewEncoder(p)
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}
	pt, err := e.Encode(vals, p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// Centered integer coefficients of the encoded polynomial.
	n := p.N()
	basis := p.BasisLevel[pt.Level()]
	coeffs := make([]float64, n)
	res := make([]uint64, basis.K())
	for c := 0; c < n; c++ {
		for j := range res {
			res[j] = pt.Value.Rows[j].Coeffs[c]
		}
		coeffs[c], _ = basis.ReconstructCentered(res).Float64()
	}

	// Naive O(n²) evaluation at the odd roots indexed by powers of 5.
	for j := 0; j < p.Slots(); j++ {
		zeta := cmplx.Rect(1, math.Pi*float64(e.rotGroup[j])/float64(n))
		acc := complex(0, 0)
		for c := n - 1; c >= 0; c-- {
			acc = acc*zeta + complex(coeffs[c], 0)
		}
		got := acc / complex(pt.Scale, 0)
		if d := cmplx.Abs(got - complex(vals[j], 0)); d > 1e-6 {
			t.Fatalf("slot %d: naive embedding %v vs input %g (|Δ| = %g)", j, got, vals[j], d)
		}
	}
}

func TestEncodeRejectsBadArgs(t *testing.T) {
	p := testParams(t)
	e := NewEncoder(p)
	if _, err := e.Encode(make([]float64, p.Slots()+1), p.MaxLevel(), p.DefaultScale()); err == nil {
		t.Fatal("oversized slot vector accepted")
	}
	if _, err := e.Encode([]float64{1}, p.MaxLevel()+1, p.DefaultScale()); err == nil {
		t.Fatal("out-of-chain level accepted")
	}
	if _, err := e.Encode([]float64{1}, 0, -1); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := e.Encode([]float64{1e30}, 0, p.DefaultScale()*math.Exp2(60)); err == nil {
		t.Fatal("overflowing coefficient accepted")
	}
}

// BenchmarkDecode decodes a top-level plaintext at the paper set.
func BenchmarkDecode(b *testing.B) {
	p, err := NewParams(PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := NewEncoder(p)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}
	pt, err := e.Encode(vals, p.MaxLevel(), p.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSlots = e.Decode(pt)
	}
}

var benchSlots []float64
