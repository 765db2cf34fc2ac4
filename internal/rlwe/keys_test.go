package rlwe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/keyio"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
	"repro/internal/sampler"
)

// normBits is the bit length of ‖x‖∞, coefficients centered over mods.
func normBits(t *testing.T, mods []ring.Modulus, x poly.RNSPoly) int {
	t.Helper()
	basis, err := rns.NewBasis(mods)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]uint64, len(mods))
	worst := 0
	for c := 0; c < x.N(); c++ {
		for j := range mods {
			res[j] = x.Rows[j].Coeffs[c]
		}
		if v := basis.ReconstructCentered(res); v.BitLen() > worst {
			worst = v.BitLen()
		}
	}
	return worst
}

// keyRing is one place the key core works: the secret over secretRows
// moduli, the public key over pkRows of them, encryption over encRows. BFV
// is the flat case; CKKS holds its secret over the chain plus p*, its public
// key over the chain and encrypts at a level — every narrower object reads
// the wider key through its row prefix.
type keyRing struct {
	name                        string
	secretRows, pkRows, encRows int
}

var keyRings = []keyRing{{"flat", 3, 3, 3}, {"row prefix", 4, 3, 2}}

// TestKeypairZeroEncryptionPhase: a zero-encryption under a generated
// keypair has a phase of pure noise — e·u + e1 + e2·s, about 6 bits at
// n = 32 and σ = 3.2 — and the symmetric −(a·s + e) the public key and every
// gadget key component are built on carries the one Gaussian term alone, so
// it is the quieter of the two.
func TestKeypairZeroEncryptionPhase(t *testing.T) {
	const n = 32
	gauss := sampler.NewGaussian(3.2)
	for _, kr := range keyRings {
		all := testMods(t, n, kr.secretRows)
		trAll, err := poly.NewTransformer(all, n)
		if err != nil {
			t.Fatal(err)
		}
		prng := sampler.NewPRNG(5)
		sk := GenSecretKey(prng, trAll, all, n)
		pk := GenPublicKey(prng, gauss, trAll.SubTransformer(kr.pkRows), all[:kr.pkRows], n, sk)
		if len(pk.P0Hat.Rows) != kr.pkRows || len(sk.SHat.Rows) != kr.secretRows {
			t.Fatalf("%s: key rows %d/%d", kr.name, len(sk.SHat.Rows), len(pk.P0Hat.Rows))
		}

		mods, tr := all[:kr.encRows], trAll.SubTransformer(kr.encRows)
		c0, c1 := poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n)
		EncryptZeroInto(prng, gauss, tr, mods, n, pk, c0, c1)
		pkBits := normBits(t, mods, Phase(tr, sk, []poly.RNSPoly{c0, c1}))

		body, aHat := maskedZero(prng, gauss, tr, mods, n, sk.SHat)
		tr.Inverse(aHat)
		symBits := normBits(t, mods, Phase(tr, sk, []poly.RNSPoly{body, aHat}))

		t.Logf("%s: ‖phase‖∞ %d bits under the public key, %d symmetric", kr.name, pkBits, symBits)
		if pkBits > 9 || symBits > 5 || symBits >= pkBits {
			t.Fatalf("%s: zero-encryption phase of %d bits (public key), %d (symmetric): want ≤ 9, ≤ 5, symmetric quieter",
				kr.name, pkBits, symBits)
		}
		// A degree-2 phase: (c0, c1, c2) = (0, 0, 1) has phase s², ‖s²‖∞ ≤ n.
		one := poly.NewRNSPoly(mods, n)
		for j := range mods {
			one.Rows[j].Coeffs[0] = 1
		}
		zero := poly.NewRNSPoly(mods, n)
		s2 := Phase(tr, sk, []poly.RNSPoly{zero, zero, one})
		for j := range mods {
			if want := poly.NegacyclicMulSchoolbook(sk.S.Rows[j], sk.S.Rows[j]); !s2.Rows[j].Equal(want) {
				t.Fatalf("%s: phase of (0, 0, 1) is not s² on row %d", kr.name, j)
			}
		}
	}
}

// TestSeededSamplingOrderPinned holds the draw order — s; then a, e; then u,
// e1, e2; then a, e per gadget digit — by digest: a seeded generator must
// keep producing these exact keys and this exact ciphertext, which is what
// lets key files and known answers outlive a refactor. (The schemes' own
// KATs pin the same order through their parameter sets.)
func TestSeededSamplingOrderPinned(t *testing.T) {
	const n = 32
	mods := testMods(t, n, 3)
	tr, err := poly.NewTransformer(mods, n)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := rns.NewBasis(mods)
	if err != nil {
		t.Fatal(err)
	}
	prng, gauss := sampler.NewPRNG(2019), sampler.NewGaussian(3.2)
	sk := GenSecretKey(prng, tr, mods, n)
	pk := GenPublicKey(prng, gauss, tr, mods, n, sk)
	c0, c1 := poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n)
	EncryptZeroInto(prng, gauss, tr, mods, n, pk, c0, c1)
	s2Hat := poly.NewRNSPoly(mods, n)
	sk.SHat.MulInto(sk.SHat, s2Hat)
	k0, k1 := GenGadgetKey(prng, gauss, tr, mods, n, rns.GadgetRNS(basis), sk.SHat, s2Hat)

	var buf bytes.Buffer
	for _, x := range append([]poly.RNSPoly{sk.S, pk.P0Hat, pk.P1Hat, c0, c1}, append(k0, k1...)...) {
		if err := keyio.WriteRows(&buf, mods, n, x); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "065c6772a0e9ff111391cd4fbe43221c685c1ce9d6663ee6f73424d1d949dd2f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("seeded key material digest %s, want %s — the sampling order moved", got, want)
	}
}

// TestKeyBodiesRoundTrip: the shared key-file bodies read back what they
// wrote, and the secret's NTT form is rebuilt on read.
func TestKeyBodiesRoundTrip(t *testing.T) {
	const n = 32
	mods := testMods(t, n, 3)
	tr, err := poly.NewTransformer(mods, n)
	if err != nil {
		t.Fatal(err)
	}
	prng, gauss := sampler.NewPRNG(8), sampler.NewGaussian(3.2)
	sk := GenSecretKey(prng, tr, mods, n)
	pk := GenPublicKey(prng, gauss, tr, mods, n, sk)

	var buf bytes.Buffer
	if err := keyio.WriteRows(&buf, mods, n, sk.S); err != nil {
		t.Fatal(err)
	}
	if err := WritePublicKey(&buf, mods, n, pk); err != nil {
		t.Fatal(err)
	}
	sk2, err := ReadSecretKey(&buf, tr, mods, n)
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := ReadPublicKey(&buf, mods, n)
	if err != nil {
		t.Fatal(err)
	}
	if !sk2.S.Equal(sk.S) || !sk2.SHat.Equal(sk.SHat) || !pk2.P0Hat.Equal(pk.P0Hat) || !pk2.P1Hat.Equal(pk.P1Hat) {
		t.Fatal("key bodies did not round-trip")
	}
	if _, err := ReadPublicKey(bytes.NewReader(make([]byte, 7)), mods, n); err == nil {
		t.Fatal("truncated public key body accepted")
	}
}

// TestSwitchIsTheStageSequence: the one key-switch entry point is, bit for
// bit, the Decompose → SumOfProducts → InverseSoP sequence of the exported
// stages — under the plain and the p*-extended switcher, with the switcher's
// own digits and with digits the caller supplies — and reports its stages
// under the caller's scope.
func TestSwitchIsTheStageSequence(t *testing.T) {
	for _, l := range ksLayouts {
		basis, mods, _, ks := l.build(t)
		_, _, _, ref := l.build(t)
		prng := sampler.NewPRNG(21)
		k0 := make([]poly.RNSPoly, basis.K())
		k1 := make([]poly.RNSPoly, basis.K())
		for i := range k0 {
			k0[i], k1[i] = sampler.UniformPoly(prng, mods, ksN), sampler.UniformPoly(prng, mods, ksN)
		}
		x := sampler.UniformPoly(prng, basis.Mods, ksN)

		for _, supplied := range []bool{false, true} {
			// Switch and SumOfProducts consume digits in place: fresh ones per use.
			digits := func() []poly.RNSPoly { return nil }
			wantSpans := []string{"t", "op", "decomp", "sop", "intt"}
			if supplied {
				digits = func() []poly.RNSPoly { return schoolbookDigits(basis, mods, x) }
				wantSpans = []string{"t", "op", "sop", "intt"}
			}
			refDigits := digits()
			if !supplied {
				refDigits = ref.Decompose(x)
			}
			ref.SumOfProducts(refDigits, k0, k1)
			ref.InverseSoP()

			tracer := obs.New("t")
			sc := tracer.Start("op")
			s0, s1 := ks.Switch(sc, x, digits(), k0, k1)
			sc.End()
			if !s0.Equal(ref.sop0) || !s1.Equal(ref.sop1) {
				t.Fatalf("%s layout, supplied digits %v: Switch differs from the stage sequence", l.name, supplied)
			}
			if got := tracer.Root().Names(); !reflect.DeepEqual(got, wantSpans) {
				t.Fatalf("%s layout, supplied digits %v: spans %v, want %v", l.name, supplied, got, wantSpans)
			}
			if u0, u1 := ks.Switch(obs.Scope{}, x, digits(), k0, k1); !u0.Equal(ref.sop0) || !u1.Equal(ref.sop1) {
				t.Fatalf("%s layout, supplied digits %v: untraced Switch differs", l.name, supplied)
			}
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s layout: Switch took a key one component short", l.name)
				}
			}()
			ks.Switch(obs.Scope{}, x, nil, k0[:len(k0)-1], k1[:len(k1)-1])
		}()
	}
}

// TestTensorMatchesUnfused: the shared tensor task is the four-product
// definition, and squares when both operands are the same rows.
func TestTensorMatchesUnfused(t *testing.T) {
	const n = 32
	mods := testMods(t, n, 3)
	prng := sampler.NewPRNG(3)
	a0, a1 := sampler.UniformPoly(prng, mods, n), sampler.UniformPoly(prng, mods, n)
	b0, b1 := sampler.UniformPoly(prng, mods, n), sampler.UniformPoly(prng, mods, n)
	t0, t1, t2 := poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n)
	w0, w1, w2 := poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n), poly.NewRNSPoly(mods, n)
	var tensor Tensor
	for _, square := range []bool{false, true} {
		if square {
			b0, b1 = a0, a1
		}
		tensor.Run(nil, a0, a1, b0, b1, t0, t1, t2)
		a0.MulInto(b0, w0)
		a0.MulInto(b1, w1)
		a1.MulAddInto(b0, w1)
		a1.MulInto(b1, w2)
		if !t0.Equal(w0) || !t1.Equal(w1) || !t2.Equal(w2) {
			t.Fatalf("tensor (square %v) differs from the unfused products", square)
		}
	}
}

// TestPadElementsLeavesInputsAlone: padding returns equal-length vectors of
// zero-extended elements without touching the caller's slices.
func TestPadElementsLeavesInputsAlone(t *testing.T) {
	const n = 32
	mods := testMods(t, n, 2)
	prng := sampler.NewPRNG(4)
	short := make([]poly.RNSPoly, 2, 3) // spare capacity: an append in place would scribble here
	long := make([]poly.RNSPoly, 3)
	for i := range short {
		short[i] = sampler.UniformPoly(prng, mods, n)
	}
	for i := range long {
		long[i] = sampler.UniformPoly(prng, mods, n)
	}
	sentinel := sampler.UniformPoly(prng, mods, n)
	short[:3][2] = sentinel

	for _, flip := range []bool{false, true} {
		a, b := short, long
		if flip {
			a, b = long, short
		}
		pa, pb := PadElements(a, b)
		if len(pa) != 3 || len(pb) != 3 {
			t.Fatalf("padded to %d and %d elements", len(pa), len(pb))
		}
		padded := pa
		if flip {
			padded = pb
		}
		if !padded[2].Equal(poly.NewRNSPoly(mods, n)) || !padded[0].Equal(short[0]) {
			t.Fatal("padding is not a zero extension of the shorter vector")
		}
		if len(short) != 2 || !short[:3][2].Equal(sentinel) {
			t.Fatal("PadElements wrote into its input's backing array")
		}
	}
	if pa, pb := PadElements(long, long); &pa[0] != &long[0] || &pb[0] != &long[0] {
		t.Fatal("equal-length vectors should come back as they are")
	}
}

// TestCheckGaloisElement: exactly the odd g in [1, 2n) pass.
func TestCheckGaloisElement(t *testing.T) {
	const n = 16
	for g := -3; g <= 2*n+3; g++ {
		ok := g >= 1 && g < 2*n && g%2 == 1
		if err := CheckGaloisElement(g, n); (err == nil) != ok {
			t.Fatalf("g = %d: err %v, want accepted = %v", g, err, ok)
		}
	}
	src := sampler.UniformPoly(sampler.NewPRNG(6), testMods(t, n, 2), n)
	want := zeroLike(src)
	AutomorphInto(5, src, want)
	if got := Automorph(5, src); !got.Equal(want) {
		t.Fatal("Automorph differs from AutomorphInto")
	}
}
