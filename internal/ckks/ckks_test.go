package ckks

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sampler"
)

// testContext bundles freshly generated keys and helpers for scheme tests.
type testContext struct {
	params *Params
	enc    *Encoder
	encr   *Encryptor
	dec    *Decryptor
	ev     *Evaluator
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rk     *RelinKey
}

func newTestContext(t *testing.T, seed int64) *testContext {
	t.Helper()
	p := testParams(t)
	kg := NewKeyGenerator(p, sampler.NewPRNG(uint64(seed)))
	sk, pk, rk := kg.GenKeys()
	return &testContext{
		params: p,
		enc:    NewEncoder(p),
		encr:   NewEncryptor(p, pk, sampler.NewPRNG(uint64(seed)+1000)),
		dec:    NewDecryptor(p, sk),
		ev:     NewEvaluator(p),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		rk:     rk,
	}
}

func randomSlots(rng *rand.Rand, n int, lim float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()*2*lim - lim
	}
	return vals
}

func maxSlotError(got, want []float64) float64 {
	max := 0.0
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > max {
			max = d
		}
	}
	return max
}

func (tc *testContext) encrypt(t *testing.T, vals []float64, level int) *Ciphertext {
	t.Helper()
	pt, err := tc.enc.Encode(vals, level, tc.params.DefaultScale())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return tc.encr.Encrypt(pt)
}

func (tc *testContext) decrypt(ct *Ciphertext) []float64 {
	return tc.enc.Decode(tc.dec.Decrypt(ct))
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, 10)
	rng := rand.New(rand.NewSource(10))
	vals := randomSlots(rng, tc.params.Slots(), 4)
	ct := tc.encrypt(t, vals, tc.params.MaxLevel())
	got := tc.decrypt(ct)
	if e := maxSlotError(got, vals); e > 1e-4 {
		t.Fatalf("fresh encrypt/decrypt error %g", e)
	}
}

func TestAddSubNeg(t *testing.T) {
	tc := newTestContext(t, 11)
	rng := rand.New(rand.NewSource(11))
	slots := tc.params.Slots()
	a, b := randomSlots(rng, slots, 2), randomSlots(rng, slots, 2)
	ca := tc.encrypt(t, a, tc.params.MaxLevel())
	cb := tc.encrypt(t, b, tc.params.MaxLevel())

	sum := tc.decrypt(tc.ev.Add(ca, cb))
	diff := tc.decrypt(tc.ev.Sub(ca, cb))
	neg := tc.decrypt(tc.ev.Neg(ca))
	for i := 0; i < slots; i++ {
		if d := math.Abs(sum[i] - (a[i] + b[i])); d > 1e-4 {
			t.Fatalf("Add slot %d error %g", i, d)
		}
		if d := math.Abs(diff[i] - (a[i] - b[i])); d > 1e-4 {
			t.Fatalf("Sub slot %d error %g", i, d)
		}
		if d := math.Abs(neg[i] + a[i]); d > 1e-4 {
			t.Fatalf("Neg slot %d error %g", i, d)
		}
	}
}

func TestMulRelinRescale(t *testing.T) {
	tc := newTestContext(t, 12)
	rng := rand.New(rand.NewSource(12))
	slots := tc.params.Slots()
	a, b := randomSlots(rng, slots, 2), randomSlots(rng, slots, 2)
	L := tc.params.MaxLevel()
	ca := tc.encrypt(t, a, L)
	cb := tc.encrypt(t, b, L)

	prod := tc.ev.Mul(ca, cb, tc.rk)
	if prod.Degree() != 1 {
		t.Fatalf("Mul returned degree %d", prod.Degree())
	}
	rescaled := tc.ev.Rescale(prod)
	if rescaled.Level() != L-1 {
		t.Fatalf("Rescale landed at level %d, want %d", rescaled.Level(), L-1)
	}
	wantScale := prod.Scale / float64(tc.params.QMods[L].Q)
	if rescaled.Scale != wantScale {
		t.Fatalf("Rescale scale %g, want %g", rescaled.Scale, wantScale)
	}

	got := tc.decrypt(rescaled)
	want := make([]float64, slots)
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if e := maxSlotError(got, want); e > 1e-3 {
		t.Fatalf("Mul+Rescale error %g", e)
	}

	// The three-step path (MulNoRelin → Relinearize → Rescale) must agree
	// bit-for-bit with the fused MulInto schedule.
	step := tc.ev.Rescale(tc.ev.Relinearize(tc.ev.MulNoRelin(ca, cb), tc.rk))
	for i := range step.Els {
		for j := range step.Els[i].Rows {
			for c, v := range step.Els[i].Rows[j].Coeffs {
				if rescaled.Els[i].Rows[j].Coeffs[c] != v {
					t.Fatalf("fused and unfused Mul disagree at el %d row %d coeff %d", i, j, c)
				}
			}
		}
	}
}

func TestMulPlainAddPlain(t *testing.T) {
	tc := newTestContext(t, 13)
	rng := rand.New(rand.NewSource(13))
	slots := tc.params.Slots()
	a, w := randomSlots(rng, slots, 2), randomSlots(rng, slots, 1)
	L := tc.params.MaxLevel()
	ca := tc.encrypt(t, a, L)

	ptW, err := tc.enc.Encode(w, L, tc.params.DefaultScale())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	prod := tc.ev.Rescale(tc.ev.MulPlain(ca, ptW))
	got := tc.decrypt(prod)
	for i := 0; i < slots; i++ {
		if d := math.Abs(got[i] - a[i]*w[i]); d > 1e-3 {
			t.Fatalf("MulPlain slot %d error %g", i, d)
		}
	}

	// AddPlain at the rescaled ciphertext's exact (non-Δ) scale.
	bias := randomSlots(rng, slots, 1)
	ptB, err := tc.enc.Encode(bias, prod.Level(), prod.Scale)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got = tc.decrypt(tc.ev.AddPlain(prod, ptB))
	for i := 0; i < slots; i++ {
		if d := math.Abs(got[i] - (a[i]*w[i] + bias[i])); d > 1e-3 {
			t.Fatalf("AddPlain slot %d error %g", i, d)
		}
	}
}

// TestRotate pins the slot-rotation direction: Galois element 5^r applied to
// the ciphertext must left-rotate the slot vector, got[i] = in[(i+r) mod
// slots].
func TestRotate(t *testing.T) {
	tc := newTestContext(t, 14)
	rng := rand.New(rand.NewSource(14))
	slots := tc.params.Slots()
	a := randomSlots(rng, slots, 2)
	ca := tc.encrypt(t, a, tc.params.MaxLevel())

	for _, r := range []int{1, 3, slots / 2, slots - 1} {
		gk := tc.kg.GenGaloisKey(tc.sk, tc.params.GaloisElementForRotation(r))
		got := tc.decrypt(tc.ev.Rotate(ca, r, gk))
		for i := 0; i < slots; i++ {
			want := a[(i+r)%slots]
			if d := math.Abs(got[i] - want); d > 1e-3 {
				t.Fatalf("Rotate(%d) slot %d: got %g want %g (|Δ| = %g)", r, i, got[i], want, d)
			}
		}
	}
}

// TestGaloisElementForRotation pins the square-and-multiply routine against
// the definition it replaced: 5 multiplied in r times mod 2N, with r reduced
// into [0, Slots) first — over every count in [-Slots, Slots], both sets.
func TestGaloisElementForRotation(t *testing.T) {
	for _, cfg := range []Config{TestConfig(), PaperConfig()} {
		p, err := NewParams(cfg)
		if err != nil {
			t.Fatal(err)
		}
		slots, m := p.Slots(), 2*p.N()
		want := make([]int, slots) // want[r] = 5^r mod 2N
		for r, g := 0, 1; r < slots; r, g = r+1, g*5%m {
			want[r] = g
		}
		for r := -slots; r <= slots; r++ {
			if got := p.GaloisElementForRotation(r); got != want[((r%slots)+slots)%slots] {
				t.Fatalf("N=%d: GaloisElementForRotation(%d) = %d, want %d", p.N(), r, got, want[((r%slots)+slots)%slots])
			}
		}
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t, 15)
	rng := rand.New(rand.NewSource(15))
	slots := tc.params.Slots()
	a := randomSlots(rng, slots, 2)
	ca := tc.encrypt(t, a, tc.params.MaxLevel())
	gk := tc.kg.GenGaloisKey(tc.sk, tc.params.GaloisElementForConjugation())
	// Real-slot inputs are fixed points of conjugation.
	got := tc.decrypt(tc.ev.Conjugate(ca, gk))
	if e := maxSlotError(got, a); e > 1e-3 {
		t.Fatalf("Conjugate on real slots error %g", e)
	}
}

func TestDropLevel(t *testing.T) {
	tc := newTestContext(t, 16)
	rng := rand.New(rand.NewSource(16))
	slots := tc.params.Slots()
	a := randomSlots(rng, slots, 2)
	ca := tc.encrypt(t, a, tc.params.MaxLevel())
	dropped := tc.ev.DropLevel(ca, 1)
	if dropped.Level() != 1 {
		t.Fatalf("DropLevel landed at %d", dropped.Level())
	}
	got := tc.decrypt(dropped)
	if e := maxSlotError(got, a); e > 1e-4 {
		t.Fatalf("DropLevel error %g", e)
	}
}

// TestDepth3Precision runs a depth-3 circuit — ((a·b)·c)·d with rescale
// after every multiply — and checks the final max slot error stays within
// the serving budget (1e-3) the encml example promises.
func TestDepth3Precision(t *testing.T) {
	tc := newTestContext(t, 17)
	L := tc.params.MaxLevel()
	if L < 3 {
		t.Skip("chain too short for depth 3")
	}
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(170 + int64(trial)))
		slots := tc.params.Slots()
		a := randomSlots(rng, slots, 1)
		b := randomSlots(rng, slots, 1)
		c := randomSlots(rng, slots, 1)
		d := randomSlots(rng, slots, 1)

		ct := tc.ev.Rescale(tc.ev.Mul(tc.encrypt(t, a, L), tc.encrypt(t, b, L), tc.rk))
		cc := tc.ev.DropLevel(tc.encrypt(t, c, L), ct.Level())
		ct = tc.ev.Rescale(tc.ev.Mul(ct, cc, tc.rk))
		cd := tc.ev.DropLevel(tc.encrypt(t, d, L), ct.Level())
		ct = tc.ev.Rescale(tc.ev.Mul(ct, cd, tc.rk))

		got := tc.decrypt(ct)
		want := make([]float64, slots)
		for i := range want {
			want[i] = a[i] * b[i] * c[i] * d[i]
		}
		if e := maxSlotError(got, want); e > 1e-3 {
			t.Fatalf("trial %d: depth-3 error %g exceeds 1e-3", trial, e)
		}
	}
}

// TestScaleMismatchPanics verifies Add refuses misaligned scales instead of
// silently producing garbage.
func TestScaleMismatchPanics(t *testing.T) {
	tc := newTestContext(t, 18)
	rng := rand.New(rand.NewSource(18))
	slots := tc.params.Slots()
	a := randomSlots(rng, slots, 1)
	ca := tc.encrypt(t, a, tc.params.MaxLevel())
	cb := tc.encrypt(t, a, tc.params.MaxLevel())
	cb.Scale *= 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched scales did not panic")
		}
	}()
	tc.ev.Add(ca, cb)
}

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, 19)
	rng := rand.New(rand.NewSource(19))
	a := randomSlots(rng, tc.params.Slots(), 2)
	ca := tc.encrypt(t, a, tc.params.MaxLevel())

	var buf bytes.Buffer
	if err := ca.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if buf.Len() != ByteSize(len(ca.Els), ca.Level(), tc.params.N()) {
		t.Fatalf("serialized %d bytes, ByteSize says %d", buf.Len(), ByteSize(len(ca.Els), ca.Level(), tc.params.N()))
	}
	// The byte-slice entry points are the same codec (internal/rlwe tests it
	// in depth): same bytes out, same length in, same value back — into a
	// recycled ciphertext at another level too.
	app, err := ca.AppendTo(nil)
	if err != nil || !bytes.Equal(app, buf.Bytes()) {
		t.Fatalf("AppendTo and Write disagree (%v)", err)
	}
	if n, err := tc.params.Wire().Check(app); err != nil || n != len(app) {
		t.Fatalf("in-place check = (%d, %v), want %d", n, err, len(app))
	}
	into := NewCiphertext(tc.params, 2, 1)
	if n, err := into.Decode(app, tc.params); err != nil || n != len(app) || !into.Equal(ca) {
		t.Fatalf("Decode = (%d, %v), equal %v", n, err, into.Equal(ca))
	}
	got, err := ReadCiphertext(&buf, tc.params)
	if err != nil {
		t.Fatalf("ReadCiphertext: %v", err)
	}
	if got.Scale != ca.Scale || got.Level() != ca.Level() {
		t.Fatal("round trip changed metadata")
	}
	for i := range ca.Els {
		for j := range ca.Els[i].Rows {
			for c, v := range ca.Els[i].Rows[j].Coeffs {
				if got.Els[i].Rows[j].Coeffs[c] != v {
					t.Fatalf("round trip changed coefficient el %d row %d idx %d", i, j, c)
				}
			}
		}
	}
}

// TestCiphertextEqual: Equal sees one differing coefficient at either end of
// the last row, a differing row modulus, a different scale and a nil other.
func TestCiphertextEqual(t *testing.T) {
	tc := newTestContext(t, 44)
	ct := tc.encrypt(t, randomSlots(rand.New(rand.NewSource(44)), tc.params.Slots(), 1), tc.params.MaxLevel())
	if !ct.Equal(ct.Clone()) {
		t.Fatal("a ciphertext differs from its clone")
	}
	last := len(ct.Els[0].Rows) - 1
	n := tc.params.N()
	for _, i := range []int{0, n - 1} {
		other := ct.Clone()
		row := other.Els[1].Rows[last]
		row.Coeffs[i] = (row.Coeffs[i] + 1) % row.Mod.Q
		if ct.Equal(other) || other.Equal(ct) {
			t.Fatalf("coefficient %d of the last row changed, Equal still true", i)
		}
	}
	other := ct.Clone()
	other.Els[0].Rows[last].Mod = other.Els[0].Rows[0].Mod
	if ct.Equal(other) {
		t.Fatal("a row modulus changed, Equal still true")
	}
	other = ct.Clone()
	other.Scale = math.Nextafter(ct.Scale, 0)
	if ct.Equal(other) {
		t.Fatal("the scale changed, Equal still true")
	}
	if ct.Equal(nil) {
		t.Fatal("Equal(nil) is true")
	}
}
