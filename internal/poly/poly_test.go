package poly

import (
	"math/rand"
	"testing"

	"repro/internal/ring"
)

func testSetup(t testing.TB, n, k int) ([]ring.Modulus, *Transformer) {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(30, n, k)
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]ring.Modulus, k)
	for i, p := range primes {
		mods[i] = ring.NewModulus(p)
	}
	tr, err := NewTransformer(mods, n)
	if err != nil {
		t.Fatal(err)
	}
	return mods, tr
}

func randPoly(r *rand.Rand, m ring.Modulus, n int) Poly {
	p := NewPoly(m, n)
	for i := range p.Coeffs {
		p.Coeffs[i] = r.Uint64() % m.Q
	}
	return p
}

func TestNTTRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 64, 256, 1024, 4096} {
		mods, tr := testSetup(t, n, 2)
		for _, m := range mods {
			_ = m
		}
		for trial := 0; trial < 5; trial++ {
			p := randPoly(r, mods[0], n)
			orig := p.Clone()
			tr.Tables[0].Forward(p.Coeffs)
			if n > 2 && p.Equal(orig) {
				t.Fatalf("n=%d: forward NTT is the identity (suspicious)", n)
			}
			tr.Tables[0].Inverse(p.Coeffs)
			if !p.Equal(orig) {
				t.Fatalf("n=%d: NTT round trip failed", n)
			}
		}
		// The kernels are in-place and allocation-free at every size, the
		// paper's n = 4096 included: one new allocation per transform fails.
		p := randPoly(r, mods[0], n)
		if allocs := testing.AllocsPerRun(10, func() {
			tr.Tables[0].Forward(p.Coeffs)
			tr.Tables[0].Inverse(p.Coeffs)
		}); allocs != 0 {
			t.Fatalf("n=%d: Forward+Inverse allocate %v times per run, want 0", n, allocs)
		}
	}
}

func TestNTTMulMatchesSchoolbook(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 64, 256} {
		mods, tr := testSetup(t, n, 3)
		for mi, m := range mods {
			for trial := 0; trial < 10; trial++ {
				a := randPoly(r, m, n)
				b := randPoly(r, m, n)
				want := NegacyclicMulSchoolbook(a, b)
				got := NegacyclicMulNTT(tr.Tables[mi], a, b)
				if !got.Equal(want) {
					t.Fatalf("n=%d q=%d: NTT mul != schoolbook", n, m.Q)
				}
			}
		}
	}
}

func TestNegacyclicWrapSign(t *testing.T) {
	// x^(n-1) · x = x^n ≡ -1 mod (x^n+1).
	mods, tr := testSetup(t, 8, 1)
	m := mods[0]
	a := NewPoly(m, 8)
	b := NewPoly(m, 8)
	a.Coeffs[7] = 1 // x^7
	b.Coeffs[1] = 1 // x
	want := NewPoly(m, 8)
	want.Coeffs[0] = m.Q - 1 // -1
	if got := NegacyclicMulSchoolbook(a, b); !got.Equal(want) {
		t.Fatalf("schoolbook x^7·x = %v", got.Coeffs)
	}
	if got := NegacyclicMulNTT(tr.Tables[0], a, b); !got.Equal(want) {
		t.Fatalf("NTT x^7·x = %v", got.Coeffs)
	}
}

func TestNTTLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mods, tr := testSetup(t, 128, 1)
	m := mods[0]
	a := randPoly(r, m, 128)
	b := randPoly(r, m, 128)
	sum := NewPoly(m, 128)
	a.AddInto(b, sum)
	tr.Tables[0].Forward(a.Coeffs)
	tr.Tables[0].Forward(b.Coeffs)
	tr.Tables[0].Forward(sum.Coeffs)
	check := NewPoly(m, 128)
	a.AddInto(b, check)
	if !check.Equal(sum) {
		t.Fatal("NTT is not linear")
	}
}

func TestNTTTableErrors(t *testing.T) {
	m := ring.NewModulus(97) // 96 = 2^5·3: supports NTT up to n=16
	if _, err := NewNTTTable(m, 16); err != nil {
		t.Fatalf("expected 16-point table over 97 to work: %v", err)
	}
	if _, err := NewNTTTable(m, 64); err == nil {
		t.Fatal("expected error: 97 ≢ 1 mod 128")
	}
	if _, err := NewNTTTable(m, 12); err == nil {
		t.Fatal("expected error for non-power-of-two degree")
	}
	if _, err := NewNTTTable(m, 1); err == nil {
		t.Fatal("expected error for degree 1")
	}
}

func TestNTTLengthMismatchPanics(t *testing.T) {
	mods, tr := testSetup(t, 8, 1)
	_ = mods
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Tables[0].Forward(make([]uint64, 4))
}

func TestPolyOps(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	mods, _ := testSetup(t, 64, 1)
	m := mods[0]
	a := randPoly(r, m, 64)
	b := randPoly(r, m, 64)

	sum := NewPoly(m, 64)
	a.AddInto(b, sum)
	diff := NewPoly(m, 64)
	sum.SubInto(b, diff)
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}

	neg := NewPoly(m, 64)
	a.NegInto(neg)
	zero := NewPoly(m, 64)
	check := NewPoly(m, 64)
	a.AddInto(neg, check)
	if !check.Equal(zero) {
		t.Fatal("a + (-a) != 0")
	}

	// MulAddInto == Mul then Add.
	acc := b.Clone()
	a.MulAddInto(b, acc)
	prod := NewPoly(m, 64)
	a.MulInto(b, prod)
	want := NewPoly(m, 64)
	b.AddInto(prod, want)
	if !acc.Equal(want) {
		t.Fatal("MulAddInto mismatch")
	}

	// Scalar multiplication distributes.
	sa := NewPoly(m, 64)
	a.ScalarMulInto(7, sa)
	sb := NewPoly(m, 64)
	b.ScalarMulInto(7, sb)
	ssum := NewPoly(m, 64)
	sum.ScalarMulInto(7, ssum)
	sumOfScaled := NewPoly(m, 64)
	sa.AddInto(sb, sumOfScaled)
	if !sumOfScaled.Equal(ssum) {
		t.Fatal("scalar mul does not distribute")
	}

	// In-place aliasing: dst == src.
	aCopy := a.Clone()
	a.AddInto(b, a)
	want2 := NewPoly(m, 64)
	aCopy.AddInto(b, want2)
	if !a.Equal(want2) {
		t.Fatal("aliased AddInto wrong")
	}
}

func TestPolyIncompatiblePanics(t *testing.T) {
	mods, _ := testSetup(t, 8, 2)
	a := NewPoly(mods[0], 8)
	b := NewPoly(mods[1], 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for modulus mismatch")
		}
	}()
	a.AddInto(b, a)
}

func TestRNSPolyOps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	mods, tr := testSetup(t, 256, 4)
	n := 256
	a := NewRNSPoly(mods, n)
	b := NewRNSPoly(mods, n)
	for i := range mods {
		copy(a.Rows[i].Coeffs, randPoly(r, mods[i], n).Coeffs)
		copy(b.Rows[i].Coeffs, randPoly(r, mods[i], n).Coeffs)
	}
	if a.Level() != 4 || a.N() != n {
		t.Fatal("level/N wrong")
	}

	// Round trip through RNS NTT.
	orig := a.Clone()
	tr.Forward(a)
	tr.Inverse(a)
	if !a.Equal(orig) {
		t.Fatal("RNS NTT round trip failed")
	}

	// (a+b)-b == a across all rows.
	sum := NewRNSPoly(mods, n)
	a.AddInto(b, sum)
	sum.SubInto(b, sum)
	if !sum.Equal(a) {
		t.Fatal("RNS add/sub failed")
	}

	// NTT-domain multiplication consistency per row.
	want := make([]Poly, len(mods))
	for i := range mods {
		want[i] = NegacyclicMulNTT(tr.Tables[i], a.Rows[i], b.Rows[i])
	}
	ah := a.Clone()
	bh := b.Clone()
	tr.Forward(ah)
	tr.Forward(bh)
	ah.MulInto(bh, ah)
	tr.Inverse(ah)
	for i := range mods {
		if !ah.Rows[i].Equal(want[i]) {
			t.Fatalf("row %d product mismatch", i)
		}
	}

	// SubTransformer operates on truncated polynomials.
	sub := tr.SubTransformer(2)
	small := RNSPoly{Rows: []Poly{a.Rows[0].Clone(), a.Rows[1].Clone()}}
	origSmall := small.Clone()
	sub.Forward(small)
	sub.Inverse(small)
	if !small.Equal(origSmall) {
		t.Fatal("SubTransformer round trip failed")
	}
}

// TestRNSPolyRowViews: Prefix is a view, not a copy — a row subset of an
// NTT-domain polynomial is the transform of the restricted polynomial, which
// is what lets a level read a full-chain key — extra rows follow the prefix
// in the order named, and CopyInto moves coefficients between equal shapes.
func TestRNSPolyRowViews(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	mods, tr := testSetup(t, 64, 4)
	a := NewRNSPoly(mods, 64)
	for i := range mods {
		copy(a.Rows[i].Coeffs, randPoly(r, mods[i], 64).Coeffs)
	}
	hat := a.Clone()
	tr.Forward(hat)

	head := a.Prefix(2).Clone()
	tr.SubTransformer(2).Forward(head)
	if !head.Equal(hat.Prefix(2)) {
		t.Fatal("the prefix of a transform is not the transform of the prefix")
	}
	view := a.Prefix(2, 3)
	if view.Level() != 3 || &view.Rows[0].Coeffs[0] != &a.Rows[0].Coeffs[0] || &view.Rows[2].Coeffs[0] != &a.Rows[3].Coeffs[0] {
		t.Fatal("Prefix(2, 3) is not rows 0, 1, 3 of its polynomial, shared")
	}
	if len(a.Rows) != 4 || a.Rows[2].Mod.Q != mods[2].Q {
		t.Fatal("taking a view disturbed the polynomial's own rows")
	}

	dst := NewRNSPoly(mods[:2], 64)
	a.Prefix(2).CopyInto(dst)
	if !dst.Equal(a.Prefix(2)) || &dst.Rows[0].Coeffs[0] == &a.Rows[0].Coeffs[0] {
		t.Fatal("CopyInto did not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyInto across shapes should panic")
		}
	}()
	a.CopyInto(dst)
}

func TestRNSPolyLevelMismatchPanics(t *testing.T) {
	mods, _ := testSetup(t, 8, 3)
	a := NewRNSPoly(mods, 8)
	b := NewRNSPoly(mods[:2], 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.AddInto(b, a)
}

func TestTransformerMismatchPanics(t *testing.T) {
	mods, tr := testSetup(t, 8, 2)
	_ = mods
	b := NewRNSPoly(mods[:1], 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Forward(b)
}

func BenchmarkNTTForward4096(b *testing.B) {
	primes, err := ring.GenerateNTTPrimes(30, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := ring.NewModulus(primes[0])
	tab, err := NewNTTTable(m, 4096)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	p := randPoly(r, m, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(p.Coeffs)
	}
}

func BenchmarkNTTInverse4096(b *testing.B) {
	primes, err := ring.GenerateNTTPrimes(30, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := ring.NewModulus(primes[0])
	tab, err := NewNTTTable(m, 4096)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	p := randPoly(r, m, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Inverse(p.Coeffs)
	}
}
