package rns

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/poly"
	"repro/internal/ring"
)

// paperBases builds the paper's basis shape scaled to n: kq q-primes and
// kp p-primes of 30 bits, all NTT-friendly for degree n.
func paperBases(t testing.TB, n, kq, kp int) (*Basis, *Basis) {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(30, n, kq+kp)
	if err != nil {
		t.Fatal(err)
	}
	qmods := make([]ring.Modulus, kq)
	pmods := make([]ring.Modulus, kp)
	for i := 0; i < kq; i++ {
		qmods[i] = ring.NewModulus(primes[i])
	}
	for j := 0; j < kp; j++ {
		pmods[j] = ring.NewModulus(primes[kq+j])
	}
	qb, err := NewBasis(qmods)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewBasis(pmods)
	if err != nil {
		t.Fatal(err)
	}
	return qb, pb
}

// decompose returns the residues of the signed value x modulo each prime of
// b (canonical, whatever x's sign or size).
func decompose(b *Basis, x *big.Int) []uint64 {
	out := make([]uint64, b.K())
	for i, m := range b.Mods {
		out[i] = modWord(x, m.Q)
	}
	return out
}

func randBelow(r *rand.Rand, bound *big.Int) *big.Int {
	return new(big.Int).Rand(r, bound)
}

// product returns q·p, the full basis product.
func product(qb, pb *Basis) *big.Int {
	return new(big.Int).Mul(qb.Product, pb.Product)
}

func TestNewBasisValidation(t *testing.T) {
	m := ring.NewModulus(97)
	if _, err := NewBasis(nil); err == nil {
		t.Fatal("expected error for empty basis")
	}
	if _, err := NewBasis([]ring.Modulus{m, m}); err == nil {
		t.Fatal("expected error for duplicate modulus")
	}
	if _, err := NewBasis([]ring.Modulus{ring.NewModulus(91)}); err == nil {
		t.Fatal("expected error for composite modulus (91 = 7·13)")
	}
}

func TestDecomposeReconstructRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	qb, _ := paperBases(t, 256, 6, 7)
	for trial := 0; trial < 200; trial++ {
		// Any x in [0, Q) comes back as its centered representative.
		x := randBelow(r, qb.Product)
		want := new(big.Int).Set(x)
		if want.Cmp(qb.half) > 0 {
			want.Sub(want, qb.Product)
		}
		if back := qb.ReconstructCentered(decompose(qb, x)); back.Cmp(want) != 0 {
			t.Fatalf("round trip failed: %s -> %s, want %s", x, back, want)
		}
	}
}

func TestReconstructRejectsResidueCount(t *testing.T) {
	qb, _ := paperBases(t, 256, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	qb.ReconstructCentered(make([]uint64, qb.K()+1))
}

func TestReconstructCentered(t *testing.T) {
	qb, _ := paperBases(t, 256, 3, 1)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		// Small signed values must come back exactly.
		v := big.NewInt(r.Int63n(1<<40) - 1<<39)
		if got := qb.ReconstructCentered(decompose(qb, v)); got.Cmp(v) != 0 {
			t.Fatalf("centered round trip failed for %s: got %s", v, got)
		}
	}
}

func TestExtendMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	qb, pb := paperBases(t, 256, 6, 7)
	ext, err := NewExtender(qb, pb.Mods)
	if err != nil {
		t.Fatal(err)
	}
	out1 := make([]uint64, pb.K())
	out2 := make([]uint64, pb.K())
	for trial := 0; trial < 500; trial++ {
		x := randBelow(r, qb.Product)
		in := decompose(qb, x)
		ext.Extend(in, out1)
		ext.ExtendExact(in, out2)
		for j := range out1 {
			if out1[j] != out2[j] {
				t.Fatalf("HPS extend != exact at residue %d (x=%s)", j, x)
			}
		}
	}
}

func TestExtendCenteredSemantics(t *testing.T) {
	qb, pb := paperBases(t, 256, 6, 7)
	ext, err := NewExtender(qb, pb.Mods)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, pb.K())
	// x ≡ -5 mod q must extend to -5 mod every p prime, not to q-5.
	in := decompose(qb, big.NewInt(-5))
	ext.Extend(in, out)
	for j, d := range pb.Mods {
		if out[j] != d.FromSigned(-5) {
			t.Fatalf("centered extension failed: residue %d = %d, want %d", j, out[j], d.FromSigned(-5))
		}
	}
	// And a positive small value maps to itself.
	in = decompose(qb, big.NewInt(12345))
	ext.Extend(in, out)
	for j := range pb.Mods {
		if out[j] != 12345 {
			t.Fatalf("small value extension failed at %d", j)
		}
	}
}

func TestExtenderValidation(t *testing.T) {
	qb, _ := paperBases(t, 256, 3, 2)
	if _, err := NewExtender(qb, qb.Mods[:1]); err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestLiftPoly(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	qb, pb := paperBases(t, 64, 3, 4)
	ext, err := NewExtender(qb, pb.Mods)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	x := poly.NewRNSPoly(qb.Mods, n)
	for c := 0; c < n; c++ {
		res := decompose(qb, randBelow(r, qb.Product))
		for i := range qb.Mods {
			x.Rows[i].Coeffs[c] = res[i]
		}
	}
	src := x.Clone()
	targets := poly.NewRNSPoly(pb.Mods, n)
	targetsTrad := poly.NewRNSPoly(pb.Mods, n)
	// The target rows are written in full: stale contents must not show.
	for j := range targets.Rows {
		for c := range targets.Rows[j].Coeffs {
			targets.Rows[j].Coeffs[c] = 12345
		}
	}
	ext.LiftTargetsInto(x, targets.Rows)
	ext.LiftTargetsVariantInto(Traditional, x, targetsTrad.Rows)
	if !targets.Equal(targetsTrad) {
		t.Fatal("HPS and traditional polynomial lifts disagree")
	}
	if !x.Equal(src) {
		t.Fatal("source rows modified")
	}
	lifted := poly.RNSPoly{Rows: append(append([]poly.Poly(nil), x.Rows...), targets.Rows...)}
	// Spot-check coefficients against the exact extension.
	in := make([]uint64, qb.K())
	out := make([]uint64, pb.K())
	for _, c := range []int{0, 1, n - 1} {
		for i := range qb.Mods {
			in[i] = x.Rows[i].Coeffs[c]
		}
		ext.ExtendExact(in, out)
		for j := range pb.Mods {
			if lifted.Rows[qb.K()+j].Coeffs[c] != out[j] {
				t.Fatalf("lifted coeff %d residue %d mismatch", c, j)
			}
		}
	}
}

func TestScaleMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	qb, pb := paperBases(t, 256, 6, 7)
	for _, tmod := range []uint64{2, 17, 65537} {
		sc, err := NewScaleRounder(qb, pb, tmod)
		if err != nil {
			t.Fatal(err)
		}
		// Inputs must satisfy t·|x| < Q/2 for the HPS intermediate to stay
		// centered in p; FV guarantees this (tensor coefficients ≤ n·q²/4).
		bound := new(big.Int).Rsh(product(qb, pb), uint(bits.Len64(tmod)+1))
		got := make([]uint64, qb.K())
		want := make([]uint64, qb.K())
		for trial := 0; trial < 200; trial++ {
			x := randBelow(r, bound)
			if r.Intn(2) == 1 {
				x.Neg(x)
			}
			xq, xp := decompose(qb, x), decompose(pb, x)
			sc.Scale(xq, xp, got)
			sc.ScaleExact(xq, xp, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("t=%d trial %d: HPS scale != exact at residue %d", tmod, trial, i)
				}
			}
		}
	}
}

func TestScaleKnownValues(t *testing.T) {
	qb, pb := paperBases(t, 256, 6, 7)
	sc, err := NewScaleRounder(qb, pb, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, qb.K())
	// round(2·x/q) for x = q: exactly 2.
	x := qb.Product
	xq := decompose(qb, x) // ≡ 0
	xp := decompose(pb, x)
	sc.Scale(xq, xp, got)
	for i := range got {
		if got[i] != 2 {
			t.Fatalf("round(2q/q) residue %d = %d, want 2", i, got[i])
		}
	}
	// x = -q/3 (exact magnitude q/3 rounded): result round(-2/3·...) small negative.
	xNeg := new(big.Int).Quo(qb.Product, big.NewInt(-3))
	xq, xp = decompose(qb, xNeg), decompose(pb, xNeg)
	sc.Scale(xq, xp, got)
	want := make([]uint64, qb.K())
	sc.ScaleExact(xq, xp, want)
	for i, m := range qb.Mods {
		if got[i] != want[i] {
			t.Fatalf("negative scale mismatch at %d", i)
		}
		if c := m.Centered(got[i]); c != -1 {
			t.Fatalf("round(2·(-q/3)/q) should be -1, got %d", c)
		}
	}
	// Zero maps to zero.
	zq := make([]uint64, qb.K())
	zp := make([]uint64, pb.K())
	sc.Scale(zq, zp, got)
	for i := range got {
		if got[i] != 0 {
			t.Fatal("scale(0) != 0")
		}
	}
}

func TestScaleRounderValidation(t *testing.T) {
	qb, pb := paperBases(t, 256, 3, 2)
	if _, err := NewScaleRounder(qb, qb, 2); err == nil {
		t.Fatal("expected overlap error")
	}
	if _, err := NewScaleRounder(qb, pb, 1); err == nil {
		t.Fatal("expected error for t < 2")
	}
	if _, err := NewScaleRounder(qb, pb, qb.Mods[0].Q); err == nil {
		t.Fatal("expected error for t equal to a basis prime")
	}
}

func TestScalePoly(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	qb, pb := paperBases(t, 64, 4, 5)
	sc, err := NewScaleRounder(qb, pb, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	full := append(append([]ring.Modulus(nil), qb.Mods...), pb.Mods...)
	x := poly.NewRNSPoly(full, n)
	bound := new(big.Int).Rsh(product(qb, pb), 3)
	for c := 0; c < n; c++ {
		v := randBelow(r, bound)
		if r.Intn(2) == 1 {
			v.Neg(v)
		}
		for i, m := range full {
			x.Rows[i].Coeffs[c] = modWord(v, m.Q)
		}
	}
	a := poly.NewRNSPoly(qb.Mods, n)
	b := poly.NewRNSPoly(qb.Mods, n)
	sc.ScalePolyInto(x, a)
	sc.ScalePolyVariantInto(Traditional, x, b)
	if !a.Equal(b) {
		t.Fatal("HPS and traditional polynomial scales disagree")
	}
	// Spot-check against the per-coefficient scale.
	xq, xp, want := make([]uint64, qb.K()), make([]uint64, pb.K()), make([]uint64, qb.K())
	for _, c := range []int{0, 1, n - 1} {
		for i := range xq {
			xq[i] = x.Rows[i].Coeffs[c]
		}
		for j := range xp {
			xp[j] = x.Rows[qb.K()+j].Coeffs[c]
		}
		sc.Scale(xq, xp, want)
		for i := range want {
			if a.Rows[i].Coeffs[c] != want[i] {
				t.Fatalf("scaled coeff %d residue %d mismatch", c, i)
			}
		}
	}
	// In place: out may be x's own q rows, through either kernel.
	for _, v := range []Variant{HPS, Traditional} {
		y := x.Clone()
		out := poly.RNSPoly{Rows: y.Rows[:qb.K()]}
		sc.ScalePolyVariantInto(v, y, out)
		if !out.Equal(a) {
			t.Fatalf("in-place scale (%v) differs from the out-of-place result", v)
		}
	}
}

func TestDecomposeRNSIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	qb, _ := paperBases(t, 64, 6, 1)
	n := 64
	x := poly.NewRNSPoly(qb.Mods, n)
	for i, m := range qb.Mods {
		for c := 0; c < n; c++ {
			x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
		}
	}
	digits := DecomposeRNS(qb, x)
	if len(digits) != qb.K() {
		t.Fatalf("expected %d digits", qb.K())
	}
	gadget := GadgetRNS(qb)
	// Σ_i d_i·g_i ≡ x (mod q), checked per residue row and coefficient.
	for row, m := range qb.Mods {
		for c := 0; c < n; c++ {
			var sum uint64
			for i := range digits {
				sum = m.Add(sum, m.Mul(digits[i].Rows[row].Coeffs[c], gadget[i].Rows[row].Coeffs[0]))
			}
			if sum != x.Rows[row].Coeffs[c] {
				t.Fatalf("gadget identity failed at row %d coeff %d", row, c)
			}
		}
	}
	// Digit magnitudes are single words below their source prime.
	for i := range digits {
		for c := 0; c < n; c++ {
			if digits[i].Rows[0].Coeffs[c] >= 1<<30 && digits[i].Rows[0].Coeffs[c] < qb.Mods[0].Q-(1<<30) {
				t.Fatalf("digit %d coeff %d is not small", i, c)
			}
		}
	}
}

func TestWordDecomposeIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	qb, _ := paperBases(t, 64, 6, 1)
	n := 64
	const logW = 30
	ell := (qb.Product.BitLen() + logW - 1) / logW
	x := poly.NewRNSPoly(qb.Mods, n)
	for i, m := range qb.Mods {
		for c := 0; c < n; c++ {
			x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
		}
	}
	digits := WordDecompose(qb, x, logW, ell)
	// Σ_d digits[d]·w^d ≡ x (mod q) per row.
	for row, m := range qb.Mods {
		wPow := uint64(1)
		sum := poly.NewPoly(m, n)
		for d := 0; d < ell; d++ {
			tmp := poly.NewPoly(m, n)
			digits[d].Rows[row].ScalarMulInto(wPow, tmp)
			sum.AddInto(tmp, sum)
			wPow = m.Mul(wPow, m.Reduce(1<<logW))
		}
		if !sum.Equal(x.Rows[row]) {
			t.Fatalf("positional decomposition identity failed on row %d", row)
		}
	}
	// Signed digits are bounded by w/2 in magnitude.
	for d := 0; d < ell; d++ {
		for c := 0; c < n; c++ {
			v := qb.Mods[0].Centered(digits[d].Rows[0].Coeffs[c])
			if v < -(1<<(logW-1)) || v > 1<<(logW-1) {
				t.Fatalf("digit %d coeff %d = %d exceeds w/2", d, c, v)
			}
		}
	}
}

func BenchmarkExtendHPS(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 6, 7)
	ext, err := NewExtender(qb, pb.Mods)
	if err != nil {
		b.Fatal(err)
	}
	in := decompose(qb, randBelow(r, qb.Product))
	out := make([]uint64, pb.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Extend(in, out)
	}
}

// BenchmarkExtendExact times the oracle, the Traditional variant's kernel.
func BenchmarkExtendExact(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 6, 7)
	ext, err := NewExtender(qb, pb.Mods)
	if err != nil {
		b.Fatal(err)
	}
	in := decompose(qb, randBelow(r, qb.Product))
	out := make([]uint64, pb.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.ExtendExact(in, out)
	}
}

func BenchmarkScaleHPS(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 6, 7)
	sc, err := NewScaleRounder(qb, pb, 2)
	if err != nil {
		b.Fatal(err)
	}
	x := randBelow(r, new(big.Int).Rsh(product(qb, pb), 3))
	xq, xp := decompose(qb, x), decompose(pb, x)
	out := make([]uint64, qb.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Scale(xq, xp, out)
	}
}

// BenchmarkLiftTargets4096 measures the full-polynomial HPS lift through the
// row-major stripe kernel (sequential: nil pool), the per-operand cost of the
// evaluator's Mul lift stage.
func BenchmarkLiftTargets4096(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 6, 7)
	ext, err := NewExtender(qb, pb.Mods)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	x := poly.NewRNSPoly(qb.Mods, n)
	for i, m := range qb.Mods {
		for c := 0; c < n; c++ {
			x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
		}
	}
	dst := make([]poly.Poly, pb.K())
	for j, d := range pb.Mods {
		dst[j] = poly.NewPoly(d, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.LiftTargetsInto(x, dst)
	}
}

// BenchmarkScalePoly4096 measures the full-polynomial HPS scale through the
// row-major stripe kernel (sequential: nil pool), the Mul rescale stage.
func BenchmarkScalePoly4096(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 6, 7)
	sc, err := NewScaleRounder(qb, pb, 2)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	all := append(append([]ring.Modulus(nil), qb.Mods...), pb.Mods...)
	x := poly.NewRNSPoly(all, n)
	for i, m := range all {
		for c := 0; c < n; c++ {
			x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
		}
	}
	out := poly.NewRNSPoly(qb.Mods, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ScalePolyInto(x, out)
	}
}

// BenchmarkScaleExact times the oracle, the Traditional variant's kernel.
func BenchmarkScaleExact(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 6, 7)
	sc, err := NewScaleRounder(qb, pb, 2)
	if err != nil {
		b.Fatal(err)
	}
	x := randBelow(r, new(big.Int).Rsh(product(qb, pb), 3))
	xq, xp := decompose(qb, x), decompose(pb, x)
	out := make([]uint64, qb.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ScaleExact(xq, xp, out)
	}
}

// BenchmarkRescaleRow times one output row of the CKKS rescale at n = 4096
// over a six-prime 30-bit chain (top index 5): the unit of work the pool
// hands out, and the row the co-processor's Rescale unit runs.
func BenchmarkRescaleRow(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	qb, pb := paperBases(b, 4096, 5, 1)
	mods := append(append([]ring.Modulus(nil), qb.Mods...), pb.Mods...)
	const n = 4096
	x := poly.NewRNSPoly(mods, n)
	for i, m := range mods {
		for c := 0; c < n; c++ {
			x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
		}
	}
	out := poly.NewRNSPoly(qb.Mods, n)
	task := &rescaleTask{r: NewRescaler(mods), t: 5, x: x.Rows, out: out.Rows}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.RunIndex(0)
	}
}
