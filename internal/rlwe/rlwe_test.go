package rlwe

import (
	"testing"

	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
	"repro/internal/sampler"
)

func testMods(t testing.TB, n, count int) []ring.Modulus {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(30, n, count)
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]ring.Modulus, count)
	for i, q := range primes {
		mods[i] = ring.NewModulus(q)
	}
	return mods
}

// TestAutomorphMatchesSchoolbook: σ_g(a) = a(X^g) mod (X^n + 1), for every
// odd g at a toy degree, against Horner's rule on the monomial X^g with the
// schoolbook negacyclic product — no index arithmetic shared with the
// implementation.
func TestAutomorphMatchesSchoolbook(t *testing.T) {
	const n = 32
	m := testMods(t, n, 1)[0]
	prng := sampler.NewPRNG(1)
	a := sampler.UniformPoly(prng, []ring.Modulus{m}, n).Rows[0]
	for g := 1; g < 2*n; g += 2 {
		xg := poly.NewPoly(m, n) // X^g, sign-wrapped
		if g < n {
			xg.Coeffs[g] = 1
		} else {
			xg.Coeffs[g-n] = m.Neg(1)
		}
		want := poly.NewPoly(m, n)
		for i := n - 1; i >= 0; i-- {
			want = poly.NegacyclicMulSchoolbook(want, xg)
			want.Coeffs[0] = m.Add(want.Coeffs[0], a.Coeffs[i])
		}
		got := poly.NewPoly(m, n)
		AutomorphRowInto(m, g, a, got)
		if !got.Equal(want) {
			t.Fatalf("σ_%d differs from a(X^%d)", g, g)
		}
	}
}

// TestAutomorphPaperSetElements pins the elements the paper sets rotate by —
// BFV's installed 3, 9 and 2n−1, and CKKS's 5^r for the slot shifts 1, 2, 4,
// 8 — at n = 4096: σ_g(a) evaluated at a root ψ^j of X^n + 1 is a evaluated at
// ψ^(j·g), and σ_g followed by σ_(g⁻¹) is the identity.
func TestAutomorphPaperSetElements(t *testing.T) {
	const n = 4096
	mods := testMods(t, n, 2)
	prng := sampler.NewPRNG(2)
	a := sampler.UniformPoly(prng, mods, n)
	sg, back := poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n)
	eval := func(m ring.Modulus, p poly.Poly, x uint64) uint64 {
		var acc uint64
		for i := n - 1; i >= 0; i-- {
			acc = m.Add(m.Mul(acc, x), p.Coeffs[i])
		}
		return acc
	}
	gs := []int{3, 9, 2*n - 1}
	for r, g := 1, 5; r <= 8; r, g = 2*r, g*g%(2*n) {
		gs = append(gs, g)
	}
	for _, g := range gs {
		AutomorphInto(g, a, sg)
		for i, m := range mods {
			psi := ring.RootOfUnity(m, 2*n)
			for _, j := range []uint64{1, 3, 2*n - 1, 1237} {
				if eval(m, sg.Rows[i], m.Pow(psi, j)) != eval(m, a.Rows[i], m.Pow(psi, j*uint64(g)%(2*n))) {
					t.Fatalf("σ_%d(a)(ψ^%d) != a(ψ^(%d·%d)) mod %d", g, j, j, g, m.Q)
				}
			}
		}
		inv := 1
		for inv*g%(2*n) != 1 {
			inv += 2
		}
		AutomorphInto(inv, sg, back)
		if !back.Equal(a) {
			t.Fatalf("σ_%d ∘ σ_%d is not the identity", inv, g)
		}
	}
}

// TestAutomorphMatchesIndexFormula holds the stepped exponent of
// AutomorphRowInto to the formula it replaces — coefficient i to i·g mod 2n,
// negated past n — word for word: every odd g at n = 8 and 16, and the
// rotation elements of both paper sets at n = 4096.
func TestAutomorphMatchesIndexFormula(t *testing.T) {
	reference := func(m ring.Modulus, g int, src, dst poly.Poly) {
		n := len(src.Coeffs)
		for i := 0; i < n; i++ {
			j := (i * g) % (2 * n)
			v := src.Coeffs[i]
			if j >= n {
				j -= n
				v = m.Neg(v)
			}
			dst.Coeffs[j] = v
		}
	}
	check := func(n int, gs []int) {
		m := testMods(t, n, 1)[0]
		a := sampler.UniformPoly(sampler.NewPRNG(uint64(n)), []ring.Modulus{m}, n).Rows[0]
		got, want := poly.NewPoly(m, n), poly.NewPoly(m, n)
		for _, g := range gs {
			AutomorphRowInto(m, g, a, got)
			reference(m, g, a, want)
			if !got.Equal(want) {
				t.Fatalf("n = %d: σ_%d differs from the index formula", n, g)
			}
		}
	}
	for _, n := range []int{8, 16} {
		var odd []int
		for g := 1; g < 2*n; g += 2 {
			odd = append(odd, g)
		}
		check(n, odd)
	}
	const n = 4096
	gs := []int{3, 9, 2*n - 1}
	for r, g := 1, 5; r <= 8; r, g = 2*r, g*g%(2*n) {
		gs = append(gs, g)
	}
	check(n, gs)
}

// TestAutomorphRefusesAliasing: the permutation is not in place, and says so.
func TestAutomorphRefusesAliasing(t *testing.T) {
	mods := testMods(t, 32, 1)
	a := sampler.UniformPoly(sampler.NewPRNG(3), mods, 32)
	defer func() {
		if recover() == nil {
			t.Fatal("AutomorphInto accepted dst aliasing src")
		}
	}()
	AutomorphInto(3, a, a)
}

// ksLayout is one scheme's key layout over a toy chain: BFV switches over the
// q basis itself; CKKS carries every digit, key and accumulator over the q
// rows plus a special prime P, its keys encrypt P·g_i·payload, and a ModDown
// by P brings the sum of products back.
type ksLayout struct {
	name    string
	special bool
}

var ksLayouts = []ksLayout{{"bfv", false}, {"ckks", true}}

const ksN = 32

func (l ksLayout) build(t *testing.T) (basis *rns.Basis, mods []ring.Modulus, tr *poly.Transformer, ks *KeySwitcher) {
	t.Helper()
	all := testMods(t, ksN, 4)
	basis, err := rns.NewBasis(all[:3])
	if err != nil {
		t.Fatal(err)
	}
	mods = all[:3]
	if l.special {
		mods = all
	}
	if tr, err = poly.NewTransformer(mods, ksN); err != nil {
		t.Fatal(err)
	}
	return basis, mods, tr, NewKeySwitcherExt(nil, tr, basis, mods, ksN)
}

// gadgets returns the per-digit constants of the layout: q*_i on the q rows,
// times P — and zero on the P row — under the special-prime layout.
func (l ksLayout) gadgets(basis *rns.Basis, mods []ring.Modulus) []poly.RNSPoly {
	base := rns.GadgetRNS(basis)
	if !l.special {
		return base
	}
	P := mods[len(mods)-1].Q
	out := make([]poly.RNSPoly, len(base))
	for i := range base {
		out[i] = poly.NewRNSPoly(mods, 1)
		for j, m := range basis.Mods {
			out[i].Rows[j].Coeffs[0] = m.Mul(m.Reduce(P), base[i].Rows[j].Coeffs[0])
		}
	}
	return out
}

// schoolbookDigits is the RNS gadget decomposition from its definition:
// digit i is the integer [x_i·q̃_i]_(q_i), taken modulo every carried prime.
func schoolbookDigits(basis *rns.Basis, mods []ring.Modulus, x poly.RNSPoly) []poly.RNSPoly {
	digits := make([]poly.RNSPoly, basis.K())
	for i, qi := range basis.Mods {
		digits[i] = poly.NewRNSPoly(mods, ksN)
		for c, v := range x.Rows[i].Coeffs {
			d := qi.Mul(v, basis.QTilde[i])
			for j, m := range mods {
				digits[i].Rows[j].Coeffs[c] = m.Reduce(d)
			}
		}
	}
	return digits
}

// schoolbookSoP is Σ_i d_i ⊛ k_i row by row with the schoolbook negacyclic
// product, keys in the coefficient domain.
func schoolbookSoP(mods []ring.Modulus, digits, keys []poly.RNSPoly) poly.RNSPoly {
	sum := poly.NewRNSPoly(mods, ksN)
	for i := range digits {
		for j := range mods {
			prod := poly.NegacyclicMulSchoolbook(digits[i].Rows[j], keys[i].Rows[j])
			sum.Rows[j].AddInto(prod, sum.Rows[j])
		}
	}
	return sum
}

// TestKeySwitchCoreMatchesSchoolbook: whatever the keys hold, the fused
// decompose → NTT → multiply-accumulate → inverse core is, bit for bit, the
// schoolbook gadget keyswitch Σ_i d_i ⊛ k_i, under both layouts.
func TestKeySwitchCoreMatchesSchoolbook(t *testing.T) {
	for _, l := range ksLayouts {
		basis, mods, tr, ks := l.build(t)
		for seed := uint64(1); seed <= 8; seed++ {
			prng := sampler.NewPRNG(seed)
			x := sampler.UniformPoly(prng, basis.Mods, ksN)
			k0 := make([]poly.RNSPoly, basis.K())
			k1 := make([]poly.RNSPoly, basis.K())
			k0Hat := make([]poly.RNSPoly, basis.K())
			k1Hat := make([]poly.RNSPoly, basis.K())
			for i := range k0 {
				k0[i], k1[i] = sampler.UniformPoly(prng, mods, ksN), sampler.UniformPoly(prng, mods, ksN)
				k0Hat[i], k1Hat[i] = k0[i].Clone(), k1[i].Clone()
				tr.Forward(k0Hat[i])
				tr.Forward(k1Hat[i])
			}
			ks.SumOfProducts(ks.Decompose(x), k0Hat, k1Hat)
			ks.InverseSoP()
			digits := schoolbookDigits(basis, mods, x)
			if !ks.sop0.Equal(schoolbookSoP(mods, digits, k0)) || !ks.sop1.Equal(schoolbookSoP(mods, digits, k1)) {
				t.Fatalf("%s layout, seed %d: keyswitch core differs from the schoolbook sum of products", l.name, seed)
			}
		}
	}
}

// TestKeySwitchSwitchesKeys: with keys from GenGadgetKey the core does what a
// keyswitch is for — sop0 + sop1·s is x·payload (after the ModDown by P under
// the special-prime layout) up to the keyswitch noise, far below the modulus.
func TestKeySwitchSwitchesKeys(t *testing.T) {
	for _, l := range ksLayouts {
		basis, mods, tr, ks := l.build(t)
		prng := sampler.NewPRNG(11)
		s := sampler.SignedBinaryPoly(prng, mods, ksN)
		payload := sampler.SignedBinaryPoly(prng, mods, ksN)
		sHat, payloadHat := s.Clone(), payload.Clone()
		tr.Forward(sHat)
		tr.Forward(payloadHat)
		k0Hat, k1Hat := GenGadgetKey(prng, sampler.NewGaussian(3.2), tr, mods, ksN,
			l.gadgets(basis, mods), sHat, payloadHat)

		x := sampler.UniformPoly(prng, basis.Mods, ksN)
		ks.SumOfProducts(ks.Decompose(x), k0Hat, k1Hat)
		ks.InverseSoP()

		// switched = sop0 + sop1 ⊛ s, schoolbook, over the carried rows.
		switched := poly.NewRNSPoly(mods, ksN)
		for j := range mods {
			ks.sop0.Rows[j].AddInto(poly.NegacyclicMulSchoolbook(ks.sop1.Rows[j], s.Rows[j]), switched.Rows[j])
		}
		noiseBits := 42 // k·n digit words of 30 bits against a σ = 3.2 error: about 36
		if l.special {
			down := poly.NewRNSPoly(basis.Mods, ksN)
			rns.NewRescaler(mods).RescaleInto(nil, switched, down)
			switched, noiseBits = down, 12 // the same noise over the 30-bit P, plus rounding: about 6
		}
		// err = switched − x ⊛ payload, centered over the q basis.
		want := make([]poly.Poly, basis.K())
		for j := range want {
			want[j] = poly.NegacyclicMulSchoolbook(x.Rows[j], payload.Rows[j])
		}
		res := make([]uint64, basis.K())
		worst := 0
		for c := 0; c < ksN; c++ {
			for j, m := range basis.Mods {
				res[j] = m.Sub(switched.Rows[j].Coeffs[c], want[j].Coeffs[c])
			}
			if v := basis.ReconstructCentered(res); v.BitLen() > worst {
				worst = v.BitLen()
			}
		}
		t.Logf("%s layout: keyswitch noise %d bits of a %d-bit modulus", l.name, worst, basis.Product.BitLen())
		if worst > noiseBits {
			t.Fatalf("%s layout: switched key is off x·payload by %d bits (noise bound %d)", l.name, worst, noiseBits)
		}
	}
}
