package rns

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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

// fromColumns builds the polynomial over mods whose coefficient c has the
// residues cols[c].
func fromColumns(mods []ring.Modulus, cols [][]uint64) poly.RNSPoly {
	x := poly.NewRNSPoly(mods, len(cols))
	for c, col := range cols {
		for i := range mods {
			x.Rows[i].Coeffs[c] = col[i]
		}
	}
	return x
}

// column returns the residues of coefficient c of x.
func column(x poly.RNSPoly, c int) []uint64 {
	col := make([]uint64, x.Level())
	for i := range col {
		col[i] = x.Rows[i].Coeffs[c]
	}
	return col
}

// liftColumns runs LiftTargetsInto on the polynomial whose coefficient c
// has the source residues ins[c].
func liftColumns(e *Extender, ins [][]uint64) poly.RNSPoly {
	out := poly.NewRNSPoly(e.Dst, len(ins))
	e.LiftTargetsInto(fromColumns(e.Src.Mods, ins), out.Rows)
	return out
}

// scaleColumns runs ScalePolyInto on the polynomial whose coefficient c has
// the full-basis residues xs[c] (q primes then p primes).
func scaleColumns(s *ScaleRounder, xs [][]uint64) poly.RNSPoly {
	out := poly.NewRNSPoly(s.QB.Mods, len(xs))
	s.ScalePolyInto(fromColumns(s.QP.Mods, xs), out)
	return out
}

// shape is a (q, p) basis width and a ring degree.
type shape struct{ kq, kp, n int }

// wideShapes are the shapes the poly tests run beyond their own: the stripe
// narrows for the side wider than 16 primes, and n = 256 spans several
// stripes, the last one partial.
var wideShapes = []shape{{6, 17, 256}, {17, 6, 256}, {24, 25, 256}}

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
	ins := make([][]uint64, 500)
	for c := range ins {
		ins[c] = decompose(qb, randBelow(r, qb.Product))
	}
	got := liftColumns(ext, ins)
	want := make([]uint64, pb.K())
	for c, in := range ins {
		ext.ExtendExact(in, want)
		for j := range want {
			if got.Rows[j].Coeffs[c] != want[j] {
				t.Fatalf("HPS extend != exact at residue %d (x=%s)", j, qb.ReconstructCentered(in))
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
	out := liftColumns(ext, [][]uint64{decompose(qb, big.NewInt(-5)), decompose(qb, big.NewInt(12345))})
	// x ≡ -5 mod q must extend to -5 mod every p prime, not to q-5.
	for j, d := range pb.Mods {
		if got := out.Rows[j].Coeffs[0]; got != d.FromSigned(-5) {
			t.Fatalf("centered extension failed: residue %d = %d, want %d", j, got, d.FromSigned(-5))
		}
	}
	// And a positive small value maps to itself.
	for j := range pb.Mods {
		if out.Rows[j].Coeffs[1] != 12345 {
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
	shapes := append([]shape{{3, 4, 64}}, wideShapes...)
	r := rand.New(rand.NewSource(4))
	for _, sh := range shapes {
		qb, pb := paperBases(t, sh.n, sh.kq, sh.kp)
		ext, err := NewExtender(qb, pb.Mods)
		if err != nil {
			t.Fatal(err)
		}
		n := sh.n
		x := poly.NewRNSPoly(qb.Mods, n)
		for c := 0; c < n; c++ {
			res := decompose(qb, randBelow(r, qb.Product))
			for i := range qb.Mods {
				x.Rows[i].Coeffs[c] = res[i]
			}
		}
		src := x.Clone()
		targets := poly.NewRNSPoly(pb.Mods, n)
		// The target rows are written in full: stale contents must not show.
		for j := range targets.Rows {
			for c := range targets.Rows[j].Coeffs {
				targets.Rows[j].Coeffs[c] = 12345
			}
		}
		ext.LiftTargetsInto(x, targets.Rows)
		if !x.Equal(src) {
			t.Fatalf("%d+%d: source rows modified", sh.kq, sh.kp)
		}
		// Every coefficient against the exact extension.
		out := make([]uint64, pb.K())
		for c := 0; c < n; c++ {
			ext.ExtendExact(column(x, c), out)
			for j := range pb.Mods {
				if targets.Rows[j].Coeffs[c] != out[j] {
					t.Fatalf("%d+%d: lifted coeff %d residue %d mismatch", sh.kq, sh.kp, c, j)
				}
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
		xs := make([][]uint64, 200)
		for trial := range xs {
			x := randBelow(r, bound)
			if r.Intn(2) == 1 {
				x.Neg(x)
			}
			xs[trial] = decompose(sc.QP, x)
		}
		got := scaleColumns(sc, xs)
		want := make([]uint64, qb.K())
		for trial, x := range xs {
			sc.ScaleExact(x[:qb.K()], x[qb.K():], want)
			for i := range want {
				if got.Rows[i].Coeffs[trial] != want[i] {
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
	// round(2·x/q) for x = q: exactly 2. x = -q/3 (exact magnitude q/3
	// rounded): round(-2/3·...) is a small negative. Zero maps to zero.
	xNeg := new(big.Int).Quo(qb.Product, big.NewInt(-3))
	got := scaleColumns(sc, [][]uint64{decompose(sc.QP, qb.Product), decompose(sc.QP, xNeg), make([]uint64, sc.QP.K())})
	for i := range qb.Mods {
		if c := got.Rows[i].Coeffs[0]; c != 2 {
			t.Fatalf("round(2q/q) residue %d = %d, want 2", i, c)
		}
	}
	want := make([]uint64, qb.K())
	sc.ScaleExact(decompose(qb, xNeg), decompose(pb, xNeg), want)
	for i, m := range qb.Mods {
		c := got.Rows[i].Coeffs[1]
		if c != want[i] {
			t.Fatalf("negative scale mismatch at %d", i)
		}
		if v := m.Centered(c); v != -1 {
			t.Fatalf("round(2·(-q/3)/q) should be -1, got %d", v)
		}
	}
	for i := range qb.Mods {
		if got.Rows[i].Coeffs[2] != 0 {
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
	shapes := append([]shape{{4, 5, 64}}, wideShapes...)
	r := rand.New(rand.NewSource(6))
	for _, sh := range shapes {
		qb, pb := paperBases(t, sh.n, sh.kq, sh.kp)
		sc, err := NewScaleRounder(qb, pb, 2)
		if err != nil {
			t.Fatal(err)
		}
		n := sh.n
		x := poly.NewRNSPoly(sc.QP.Mods, n)
		bound := new(big.Int).Rsh(product(qb, pb), 3)
		for c := 0; c < n; c++ {
			v := randBelow(r, bound)
			if r.Intn(2) == 1 {
				v.Neg(v)
			}
			for i, m := range sc.QP.Mods {
				x.Rows[i].Coeffs[c] = modWord(v, m.Q)
			}
		}
		a := poly.NewRNSPoly(qb.Mods, n)
		sc.ScalePolyInto(x, a)
		// Every coefficient against the exact scale.
		exact := make([]uint64, qb.K())
		for c := 0; c < n; c++ {
			xc := column(x, c)
			sc.ScaleExact(xc[:qb.K()], xc[qb.K():], exact)
			for i := range exact {
				if a.Rows[i].Coeffs[c] != exact[i] {
					t.Fatalf("%d+%d: scaled coeff %d residue %d mismatch", sh.kq, sh.kp, c, i)
				}
			}
		}
		// In place: out may be x's own q rows.
		y := x.Clone()
		out := poly.RNSPoly{Rows: y.Rows[:qb.K()]}
		sc.ScalePolyInto(y, out)
		if !out.Equal(a) {
			t.Fatalf("%d+%d: in-place scale differs from the out-of-place result", sh.kq, sh.kp)
		}
	}
}

// TestLiftScaleZeroAlloc holds both poly entry points to zero allocations at
// the paper's widths and at the wide shapes, where the stripe narrows.
func TestLiftScaleZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, sh := range []shape{{6, 7, 1024}, {6, 17, 1024}, {24, 25, 1024}} {
		qb, pb := paperBases(t, sh.n, sh.kq, sh.kp)
		ext, err := NewExtender(qb, pb.Mods)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScaleRounder(qb, pb, 65537)
		if err != nil {
			t.Fatal(err)
		}
		x := poly.NewRNSPoly(sc.QP.Mods, sh.n)
		for i, m := range sc.QP.Mods {
			for c := range x.Rows[i].Coeffs {
				x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
			}
		}
		q := poly.RNSPoly{Rows: x.Rows[:sh.kq]}
		out := poly.NewRNSPoly(qb.Mods, sh.n)
		if a := testing.AllocsPerRun(5, func() { ext.LiftTargetsInto(q, x.Rows[sh.kq:]) }); a != 0 {
			t.Errorf("%d+%d: LiftTargetsInto allocates %.1f times per call", sh.kq, sh.kp, a)
		}
		if a := testing.AllocsPerRun(5, func() { sc.ScalePolyInto(x, out) }); a != 0 {
			t.Errorf("%d+%d: ScalePolyInto allocates %.1f times per call", sh.kq, sh.kp, a)
		}
	}
}

// refLift is the reference stripe of one coefficient: extendStripe's
// arithmetic with the quotient summed and rounded in acc192 alone, as every
// lane was before the float64 estimate.
func refLift(e *Extender, in []uint64) []uint64 {
	k := e.Src.K()
	y := make([]uint64, k)
	var acc acc192
	for i, m := range e.Src.Mods {
		y[i] = m.Mul(in[i], e.Src.QTilde[i])
		acc.addMul(y[i], e.Src.invFrac[i])
	}
	v := acc.round()
	out := make([]uint64, len(e.Dst))
	for j, d := range e.Dst {
		var sum uint64
		for i, yi := range y {
			sum = d.Add(sum, d.Mul(d.Reduce(yi), e.qStarFlat[j*k+i]))
		}
		out[j] = d.Sub(sum, d.Mul(d.Reduce(v), e.qMod[j]))
	}
	return out
}

// refScale is the reference stripe of Scale for one coefficient x (q
// residues then p residues): Blocks 1–3 with the fraction in acc192 alone,
// then refLift's p → q.
func refScale(s *ScaleRounder, x []uint64) []uint64 {
	kq := s.QB.K()
	var acc acc192
	for i := 0; i < kq; i++ {
		acc.addMul(x[i], s.theta[i])
	}
	r := acc.round()
	yp := make([]uint64, s.PB.K())
	for j, d := range s.PB.Mods {
		sum := d.Reduce(r)
		for i := 0; i < kq; i++ {
			sum = d.Add(sum, d.Mul(d.Reduce(x[i]), s.wFlat[j*kq+i]))
		}
		yp[j] = d.Add(sum, d.Mul(x[kq+j], s.bCst[j]))
	}
	return refLift(s.ext, yp)
}

// settled reports which lanes a fraction estimate leaves to the exact
// fallback: lane c sums terms[c][i]·f[i], within the tie band eps.
func settled(f []float64, eps float64, terms [][]uint64) []bool {
	rows := stripeRows{staged: make([]uint64, len(f)*len(terms)), w: len(terms), stride: len(terms)}
	for c, col := range terms {
		for i := range f {
			rows.staged[i*len(terms)+c] = col[i]
		}
	}
	var a fracLanes
	a.addRows(f, &rows)
	v := make([]uint64, len(terms))
	a.roundInto(v, eps)
	out := make([]bool, len(terms))
	for c, vc := range v {
		out[c] = vc == flaggedLane
	}
	return out
}

// nearHalves returns (m±1)/2 + δ for δ in [-3, 3], every one of them within
// 4 of m/2 (m odd): the values whose fraction sums sit at a tie.
func nearHalves(m *big.Int) []*big.Int {
	var out []*big.Int
	for _, pm := range []int64{-1, 1} {
		for d := int64(-3); d <= 3; d++ {
			x := new(big.Int).Add(m, big.NewInt(pm))
			x.Rsh(x, 1).Add(x, big.NewInt(d))
			out = append(out, x)
		}
	}
	return out
}

// TestLiftScaleMatchReference holds both HPS kernels word for word to the
// acc192-only reference stripe, on random lanes and on crafted near-tie
// lanes that the float64 estimate must leave to the fallback: Lift sources
// x = (Q±1)/2 + δ, Scale inputs whose q part X has t·X ≡ (q±1)/2 + δ
// (mod q), and Scale inputs whose result round(t·x/q) is (P±1)/2 + δ, a tie
// of the extension p → q.
func TestLiftScaleMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const tmod = 65537
	for _, sh := range []shape{{6, 7, 256}, {6, 17, 256}, {17, 6, 256}, {24, 25, 256}} {
		qb, pb := paperBases(t, sh.n, sh.kq, sh.kp)
		ext, err := NewExtender(qb, pb.Mods)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScaleRounder(qb, pb, tmod)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d+%d", sh.kq, sh.kp)
		mustSettle := func(what string, f []float64, eps float64, terms [][]uint64) {
			for c, ok := range settled(f, eps, terms) {
				if !ok {
					t.Errorf("%s: crafted %s lane %d escaped the fallback", name, what, c)
				}
			}
		}

		// Lift q → p.
		var ins, ys [][]uint64
		for c := 0; c < 200; c++ {
			ins = append(ins, decompose(qb, randBelow(r, qb.Product)))
		}
		for _, x := range nearHalves(qb.Product) {
			in := decompose(qb, x)
			y := make([]uint64, len(in))
			for i, m := range qb.Mods {
				y[i] = m.Mul(in[i], qb.QTilde[i])
			}
			ins, ys = append(ins, in), append(ys, y)
		}
		mustSettle("lift", ext.inv, ext.eps, ys)
		got := liftColumns(ext, ins)
		for c, in := range ins {
			if g, w := column(got, c), refLift(ext, in); !slices.Equal(g, w) {
				t.Fatalf("%s: lift of lane %d: %v, reference %v", name, c, g, w)
			}
		}

		// Scale q·p → q.
		var xs, xq [][]uint64
		randP := func() []uint64 {
			res := make([]uint64, pb.K())
			for j, m := range pb.Mods {
				res[j] = r.Uint64() % m.Q
			}
			return res
		}
		for c := 0; c < 200; c++ {
			xs = append(xs, append(decompose(qb, randBelow(r, qb.Product)), randP()...))
		}
		tInv := new(big.Int).ModInverse(big.NewInt(tmod), qb.Product)
		for _, h := range nearHalves(qb.Product) {
			x := decompose(qb, h.Mul(h, tInv).Mod(h, qb.Product))
			xs, xq = append(xs, append(x, randP()...)), append(xq, x)
		}
		mustSettle("scale", sc.thetaF, sc.eps, xq)
		var yps [][]uint64
		for _, y := range nearHalves(pb.Product) {
			// x = round(y·q/t) gives round(t·x/q) = y, as t < q.
			x := new(big.Int).Mul(y, qb.Product)
			x.Add(x, big.NewInt(tmod/2)).Quo(x, big.NewInt(tmod))
			xs = append(xs, decompose(sc.QP, x))
			yp := decompose(pb, y)
			for j, m := range pb.Mods {
				yp[j] = m.Mul(yp[j], pb.QTilde[j])
			}
			yps = append(yps, yp)
		}
		mustSettle("scale extension", sc.ext.inv, sc.ext.eps, yps)
		got = scaleColumns(sc, xs)
		for c, x := range xs {
			if g, w := column(got, c), refScale(sc, x); !slices.Equal(g, w) {
				t.Fatalf("%s: scale of lane %d: %v, reference %v", name, c, g, w)
			}
		}
	}
}

// fuzzPrimes is the prime pool FuzzLiftScale draws its bases from: 48
// 30-bit primes, enough for 24 on each side.
var fuzzPrimes = sync.OnceValue(func() []ring.Modulus {
	primes, err := ring.GenerateNTTPrimes(30, 256, 48)
	if err != nil {
		panic(err)
	}
	mods := make([]ring.Modulus, len(primes))
	for i, p := range primes {
		mods[i] = ring.NewModulus(p)
	}
	return mods
})

// FuzzLiftScale compares both HPS kernels with the acc192-only reference
// stripe on every input, and with their exact oracles at q and p widths of
// 1..24 each and any t ≥ 2, wherever the rounding bound promises equality: Lift's source value outside the band at ±Q/2 of its quotient
// estimate, Scale's input outside the band of its fraction sum (the
// MessageScaler bound) and its result outside the band of the extension
// p → q.
func FuzzLiftScale(f *testing.F) {
	seed := make([]byte, 8*48)
	rand.New(rand.NewSource(10)).Read(seed)
	f.Add(uint8(5), uint8(6), uint64(2), seed)          // 6 + 7
	f.Add(uint8(5), uint8(16), uint64(65537), seed)     // 6 + 17
	f.Add(uint8(16), uint8(5), uint64(17), seed)        // 17 + 6
	f.Add(uint8(23), uint8(23), uint64(1<<64-59), seed) // 24 + 24
	f.Add(uint8(0), uint8(0), uint64(3), []byte{1})     // 1 + 1
	f.Fuzz(func(t *testing.T, kq, kp uint8, tmod uint64, data []byte) {
		pool := fuzzPrimes()
		nq, np := 1+int(kq)%24, 1+int(kp)%24
		qb, err := NewBasis(pool[:nq])
		if err != nil {
			t.Fatal(err)
		}
		pb, err := NewBasis(pool[nq : nq+np])
		if err != nil {
			t.Fatal(err)
		}
		words := make([]uint64, nq+np)
		for i := range words {
			var b [8]byte
			if 8*i < len(data) {
				copy(b[:], data[8*i:])
			}
			words[i] = binary.LittleEndian.Uint64(b[:])
		}

		// Lift q → p of the value whose q residues the data gives.
		ext, err := NewExtender(qb, pb.Mods)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]uint64, nq)
		for i, m := range qb.Mods {
			in[i] = words[i] % m.Q
		}
		if got, ref := column(liftColumns(ext, [][]uint64{in}), 0), refLift(ext, in); !slices.Equal(got, ref) {
			t.Fatalf("%d+%d lift of %v: %v, reference %v", nq, np, in, got, ref)
		}
		if outsideFlipBand(qb, qb.ReconstructCentered(in)) {
			want := make([]uint64, np)
			ext.ExtendExact(in, want)
			if got := column(liftColumns(ext, [][]uint64{in}), 0); !slices.Equal(got, want) {
				t.Fatalf("%d+%d lift of %v: %v, exact %v", nq, np, in, got, want)
			}
		}

		// Scale of a value over q·p, shrunk by t so that round(t·x/q) can
		// only leave (-p/2, p/2) by rounding.
		sc, err := NewScaleRounder(qb, pb, tmod)
		if err != nil {
			t.Skip() // t < 2, or t is a basis prime
		}
		full := make([]uint64, nq+np)
		for i, m := range sc.QP.Mods {
			full[i] = words[i] % m.Q
		}
		if got, ref := column(scaleColumns(sc, [][]uint64{full}), 0), refScale(sc, full); !slices.Equal(got, ref) {
			t.Fatalf("%d+%d scale of %v at t=%d: %v, reference %v", nq, np, full, tmod, got, ref)
		}
		x := sc.QP.ReconstructCentered(full)
		x.Quo(x, new(big.Int).SetUint64(tmod))
		_, w := exactRound(qb.Product, tmod, new(big.Int).Mod(x, qb.Product))
		y := new(big.Int).Mul(x, new(big.Int).SetUint64(tmod))
		y.Add(y, qb.half).Div(y, qb.Product)
		if !outsideFlipBand(qb, w) || !outsideFlipBand(pb, y) {
			t.Skip()
		}
		xs := decompose(sc.QP, x)
		want := make([]uint64, nq)
		sc.ScaleExact(xs[:nq], xs[nq:], want)
		if got := column(scaleColumns(sc, [][]uint64{xs}), 0); !slices.Equal(got, want) {
			t.Fatalf("%d+%d scale of %s at t=%d: %v, exact %v", nq, np, x, tmod, got, want)
		}
	})
}

// The identity holds for the whole basis and for every prefix of it, with
// the whole basis's gadget: how one key over the top of a chain serves each
// level.
func TestDecomposeRNSIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	qb, _ := paperBases(t, 64, 6, 1)
	n := 64
	gadget := GadgetRNS(qb)
	for k := qb.K(); k >= 1; k-- {
		mods := qb.Mods[:k]
		x := poly.NewRNSPoly(mods, n)
		for i, m := range mods {
			for c := 0; c < n; c++ {
				x.Rows[i].Coeffs[c] = r.Uint64() % m.Q
			}
		}
		digits := make([]poly.RNSPoly, k)
		for i := range digits {
			digits[i] = poly.NewRNSPoly(mods, n)
		}
		DecomposeRNSPoolInto(nil, qb, x, digits)
		// Σ_i d_i·g_i ≡ x (mod each q_j of the prefix), checked per residue
		// row and coefficient.
		for row, m := range mods {
			for c := 0; c < n; c++ {
				var sum uint64
				for i := range digits {
					sum = m.Add(sum, m.Mul(digits[i].Rows[row].Coeffs[c], gadget[i].Rows[row].Coeffs[0]))
				}
				if sum != x.Rows[row].Coeffs[c] {
					t.Fatalf("%d-prime prefix: gadget identity failed at row %d coeff %d", k, row, c)
				}
			}
		}
		// Digit magnitudes are single words below their source prime.
		for i := range digits {
			for c := 0; c < n; c++ {
				if digits[i].Rows[0].Coeffs[c] >= 1<<30 && digits[i].Rows[0].Coeffs[c] < qb.Mods[0].Q-(1<<30) {
					t.Fatalf("%d-prime prefix: digit %d coeff %d is not small", k, i, c)
				}
			}
		}
	}
}

// BenchmarkExtendExact times the exact CRT oracle.
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

// BenchmarkScaleExact times the exact CRT oracle.
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
