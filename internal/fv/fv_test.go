package fv

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/poly"
	"repro/internal/sampler"
)

var testParamsCache = map[uint64]*Params{}

func testParams(t testing.TB, tmod uint64) *Params {
	t.Helper()
	if p, ok := testParamsCache[tmod]; ok {
		return p
	}
	p, err := NewParams(TestConfig(tmod))
	if err != nil {
		t.Fatal(err)
	}
	testParamsCache[tmod] = p
	return p
}

func TestParamsValidation(t *testing.T) {
	bad := []Config{
		{N: 100, T: 2, QCount: 2, PCount: 2, PrimeBits: 30, Sigma: 3.2},   // degree not 2^k
		{N: 256, T: 1, QCount: 2, PCount: 2, PrimeBits: 30, Sigma: 3.2},   // t too small
		{N: 256, T: 2, QCount: 0, PCount: 2, PrimeBits: 30, Sigma: 3.2},   // no q primes
		{N: 256, T: 2, QCount: 2, PCount: 0, PrimeBits: 30, Sigma: 3.2},   // no p primes
		{N: 256, T: 2, QCount: 2, PCount: 2, PrimeBits: 30, Sigma: 0},     // bad sigma
		{N: 256, T: 2, QCount: 2, PCount: 2, PrimeBits: 64, Sigma: 3.2},   // prime too wide
		{N: 256, T: 2, QCount: 500, PCount: 2, PrimeBits: 14, Sigma: 3.2}, // not enough primes
	}
	for i, cfg := range bad {
		if _, err := NewParams(cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

// TestParamsScaleRange holds NewParams to the Scale range bound P > t·n·q:
// a p basis one prime short of it is refused (Mul would decrypt garbage),
// and every parameter shape the repository runs is accepted.
func TestParamsScaleRange(t *testing.T) {
	batchT, err := BatchingPlaintextModulus(256, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{N: 4096, T: 65537, QCount: 6, PCount: 6, PrimeBits: 30, Sigma: 3.2},
		{N: 256, T: 65537, QCount: 3, PCount: 3, PrimeBits: 30, Sigma: 3.2},
	} {
		if _, err := NewParams(cfg); err == nil || !strings.Contains(err.Error(), "P > t·n·q") {
			t.Errorf("n=%d t=%d %d+%d: got %v, want the P > t·n·q refusal", cfg.N, cfg.T, cfg.QCount, cfg.PCount, err)
		}
	}
	tiny := TestConfig(17)
	tiny.N, tiny.QCount, tiny.PCount = 16, 2, 3
	for _, cfg := range []Config{
		PaperConfig(2),
		PaperConfig(65537),
		TestConfig(2),
		TestConfig(65537),
		TestConfig(batchT),
		tiny,
		{N: 256, T: 65537, QCount: 2, PCount: 3, PrimeBits: 30, Sigma: 3.2},
		{N: 256, T: 2, QCount: 16, PCount: 17, PrimeBits: 30, Sigma: 3.2},
		{N: 512, T: 2, QCount: 6, PCount: 7, PrimeBits: 30, Sigma: 3.2},
		{N: 512, T: 2, QCount: 10, PCount: 11, PrimeBits: 30, Sigma: 3.2},
		{N: 1024, T: 2, QCount: 6, PCount: 7, PrimeBits: 30, Sigma: 3.2},
	} {
		if _, err := NewParams(cfg); err != nil {
			t.Errorf("n=%d t=%d %d+%d refused: %v", cfg.N, cfg.T, cfg.QCount, cfg.PCount, err)
		}
	}
}

// TestMulWideBasis runs Mul on a basis wider than 16 primes on each side,
// where Lift and Scale stripes narrow to fit their stack staging.
func TestMulWideBasis(t *testing.T) {
	p, err := NewParams(Config{N: 256, T: 2, QCount: 16, PCount: 17, PrimeBits: 30, Sigma: 3.2})
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(34)
	sk, pk, rk := NewKeyGenerator(p, prng).GenKeys()
	enc := NewEncryptor(p, pk, prng)
	ie := NewIntegerEncoder(p)
	prod := NewEvaluator(p).Mul(enc.Encrypt(ie.Encode(3)), enc.Encrypt(ie.Encode(5)), rk)
	if v, err := ie.Decode(NewDecryptor(p, sk).Decrypt(prod)); err != nil || v != 15 {
		t.Fatalf("3 · 5 = %d (err %v), want 15", v, err)
	}
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := testParams(t, 17)
	if p.LogQ() < 87 || p.LogQ() > 90 {
		t.Fatalf("LogQ = %d, expected ≈ 90 for three 30-bit primes", p.LogQ())
	}
	if p.LogBigQ() < p.LogQ()+4*29 {
		t.Fatalf("LogBigQ = %d too small", p.LogBigQ())
	}
	if d := p.SupportedDepth(); d < 1 {
		t.Fatalf("test parameters should support depth ≥ 1, got %d", d)
	}
}

func TestPaperParams(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow to instantiate")
	}
	p, err := NewParams(PaperConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.LogQ() < 178 || p.LogQ() > 180 {
		t.Fatalf("paper q should be ≈ 180 bits, got %d", p.LogQ())
	}
	// Paper Sec. III-A: "the width of the larger modulus Q to at least 372
	// bit"; six plus seven 30-bit primes give ≈ 390.
	if p.LogBigQ() < 372 {
		t.Fatalf("paper Q should be ≥ 372 bits, got %d", p.LogBigQ())
	}
	if d := p.SupportedDepth(); d < 4 {
		t.Fatalf("paper parameters must support depth 4, got %d", d)
	}
	if s := p.SecurityBits(); s < 70 {
		t.Fatalf("paper parameters should rate ≈ 80-bit security, got %d", s)
	}
}

// TestNoiseBudgetAndParamPins pins what the parameter set and the noise
// measurement derive, at the test set and the paper set: the depth and
// security estimates, the widths of q and Q, and the budget of a fresh
// ciphertext and of its square (seed 42, message coefficients i mod t).
func TestNoiseBudgetAndParamPins(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow to instantiate")
	}
	for _, c := range []struct {
		cfg     Config
		derived [4]int // SupportedDepth, SecurityBits, LogQ, LogBigQ
		budgets [2]int // fresh, after one Mult
	}{
		{TestConfig(257), [4]int{3, 0, 90, 210}, [2]int{73, 43}},
		{PaperConfig(65537), [4]int{4, 77, 180, 390}, [2]int{148, 118}},
	} {
		p, err := NewParams(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := [4]int{p.SupportedDepth(), p.SecurityBits(), p.LogQ(), p.LogBigQ()}; got != c.derived {
			t.Fatalf("n=%d: depth, security, log q, log Q = %v, pinned %v", c.cfg.N, got, c.derived)
		}
		prng := sampler.NewPRNG(42)
		sk, pk, rk := NewKeyGenerator(p, prng).GenKeys()
		pt := NewPlaintext(p)
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(i) % c.cfg.T
		}
		ct := NewEncryptor(p, pk, prng).Encrypt(pt)
		got := [2]int{NoiseBudget(p, sk, ct), NoiseBudget(p, sk, NewEvaluator(p).Mul(ct, ct, rk))}
		if got != c.budgets {
			t.Fatalf("n=%d: budgets fresh, after Mult = %v, pinned %v", c.cfg.N, got, c.budgets)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, tmod := range []uint64{2, 17, 65537} {
		p := testParams(t, tmod)
		prng := sampler.NewPRNG(1)
		kg := NewKeyGenerator(p, prng)
		sk, pk, _ := kg.GenKeys()
		enc := NewEncryptor(p, pk, prng)
		dec := NewDecryptor(p, sk)

		pt := NewPlaintext(p)
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(i) % tmod
		}
		ct := enc.Encrypt(pt)
		if got := dec.Decrypt(ct); !got.Equal(pt) {
			t.Fatalf("t=%d: decrypt(encrypt(m)) != m", tmod)
		}
		if b := NoiseBudget(p, sk, ct); b <= 0 {
			t.Fatalf("t=%d: fresh ciphertext has no noise budget", tmod)
		}
	}
}

// BenchmarkDecrypt decrypts one relinearized Mult output at the paper set.
func BenchmarkDecrypt(b *testing.B) {
	p, err := NewParams(PaperConfig(65537))
	if err != nil {
		b.Fatal(err)
	}
	prng := sampler.NewPRNG(5)
	sk, pk, rk := NewKeyGenerator(p, prng).GenKeys()
	pt := NewPlaintext(p)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i) % p.T()
	}
	ct := NewEncryptor(p, pk, prng).Encrypt(pt)
	ct = NewEvaluator(p).Mul(ct, ct, rk)
	dec := NewDecryptor(p, sk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlaintext = dec.Decrypt(ct)
	}
}

var benchPlaintext *Plaintext

func TestHomomorphicAdd(t *testing.T) {
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(3)
	kg := NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	a := NewPlaintext(p)
	b := NewPlaintext(p)
	want := NewPlaintext(p)
	for i := range a.Coeffs {
		a.Coeffs[i] = uint64(3*i) % tmod
		b.Coeffs[i] = uint64(5*i+1) % tmod
		want.Coeffs[i] = (a.Coeffs[i] + b.Coeffs[i]) % tmod
	}
	ca, cb := enc.Encrypt(a), enc.Encrypt(b)
	sum := ev.Add(ca, cb)
	if got := dec.Decrypt(sum); !got.Equal(want) {
		t.Fatal("homomorphic addition incorrect")
	}

	// Sub and Neg.
	diff := ev.Sub(sum, cb)
	if got := dec.Decrypt(diff); !got.Equal(a) {
		t.Fatal("homomorphic subtraction incorrect")
	}
	neg := ev.Neg(ca)
	wantNeg := NewPlaintext(p)
	for i := range wantNeg.Coeffs {
		wantNeg.Coeffs[i] = (tmod - a.Coeffs[i]) % tmod
	}
	if got := dec.Decrypt(neg); !got.Equal(wantNeg) {
		t.Fatal("homomorphic negation incorrect")
	}
}

func TestAddPlainMulPlain(t *testing.T) {
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(4)
	kg := NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	a := NewPlaintext(p)
	a.Coeffs[0] = 7
	ct := enc.Encrypt(a)

	b := NewPlaintext(p)
	b.Coeffs[0] = 50
	sum := ev.AddPlain(ct, b)
	if got := dec.Decrypt(sum); got.Coeffs[0] != 57 {
		t.Fatalf("AddPlain: got %d, want 57", got.Coeffs[0])
	}

	c := NewPlaintext(p)
	c.Coeffs[0] = 3
	prod := ev.MulPlain(ct, c)
	if got := dec.Decrypt(prod); got.Coeffs[0] != 21 {
		t.Fatalf("MulPlain: got %d, want 21", got.Coeffs[0])
	}
}

func TestHomomorphicMul(t *testing.T) {
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(5)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	a := NewPlaintext(p)
	b := NewPlaintext(p)
	a.Coeffs[0], a.Coeffs[1] = 6, 1 // 6 + x
	b.Coeffs[0], b.Coeffs[1] = 7, 2 // 7 + 2x
	// (6+x)(7+2x) = 42 + 19x + 2x².
	ca, cb := enc.Encrypt(a), enc.Encrypt(b)

	ct3 := ev.MulNoRelin(ca, cb)
	if ct3.Degree() != 2 {
		t.Fatalf("product degree %d", ct3.Degree())
	}
	got := dec.Decrypt(ct3)
	if got.Coeffs[0] != 42 || got.Coeffs[1] != 19 || got.Coeffs[2] != 2 {
		t.Fatalf("degree-2 decrypt = %v", got.Coeffs[:4])
	}

	ct2 := ev.Relinearize(ct3, rk)
	if ct2.Degree() != 1 {
		t.Fatalf("relinearized degree %d", ct2.Degree())
	}
	got = dec.Decrypt(ct2)
	if got.Coeffs[0] != 42 || got.Coeffs[1] != 19 || got.Coeffs[2] != 2 {
		t.Fatalf("relinearized decrypt = %v", got.Coeffs[:4])
	}

	// One-shot Mul matches.
	if !ev.Mul(ca, cb, rk).Equal(ct2) {
		t.Fatal("Mul != Relinearize(MulNoRelin)")
	}
}

// TestMulNoRelinMatchesExactCRT: the HPS Lift and Scale inside MulNoRelin
// give, bit for bit, what the exact multi-precision CRT dataflow of the
// paper's traditional design (Figs. 5 and 8; the rns oracles ExtendExact
// and ScaleExact) gives on the same tensor product.
func TestMulNoRelinMatchesExactCRT(t *testing.T) {
	const tmod = 17
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(6)
	_, pk, _ := NewKeyGenerator(p, prng).GenKeys()
	enc := NewEncryptor(p, pk, prng)

	a := NewPlaintext(p)
	a.Coeffs[0], a.Coeffs[3] = 2, 5
	b := NewPlaintext(p)
	b.Coeffs[1] = 3
	ca, cb := enc.Encrypt(a), enc.Encrypt(b)
	hps := NewEvaluator(p).MulNoRelin(ca, cb)

	n, kq, kp := p.N(), p.Cfg.QCount, p.Cfg.PCount
	lift := func(x poly.RNSPoly) poly.RNSPoly {
		out := poly.NewRNSPoly(p.AllMods, n)
		in, res := make([]uint64, kq), make([]uint64, kp)
		for c := 0; c < n; c++ {
			for i := range in {
				in[i] = x.Rows[i].Coeffs[c]
				out.Rows[i].Coeffs[c] = in[i]
			}
			p.Lifter.ExtendExact(in, res)
			for j, r := range res {
				out.Rows[kq+j].Coeffs[c] = r
			}
		}
		p.TrFull.Forward(out)
		return out
	}
	a0, a1, b0, b1 := lift(ca.Els[0]), lift(ca.Els[1]), lift(cb.Els[0]), lift(cb.Els[1])
	tensor := [3]poly.RNSPoly{}
	for i := range tensor {
		tensor[i] = poly.NewRNSPoly(p.AllMods, n)
	}
	cross := poly.NewRNSPoly(p.AllMods, n)
	a0.MulInto(b0, tensor[0])
	a0.MulInto(b1, tensor[1])
	a1.MulInto(b0, cross)
	tensor[1].AddInto(cross, tensor[1])
	a1.MulInto(b1, tensor[2])
	xq, xp, out := make([]uint64, kq), make([]uint64, kp), make([]uint64, kq)
	for k, x := range tensor {
		p.TrFull.Inverse(x)
		for c := 0; c < n; c++ {
			for i := range xq {
				xq[i] = x.Rows[i].Coeffs[c]
			}
			for j := range xp {
				xp[j] = x.Rows[kq+j].Coeffs[c]
			}
			p.Scaler.ScaleExact(xq, xp, out)
			for i, v := range out {
				if hps.Els[k].Rows[i].Coeffs[c] != v {
					t.Fatalf("element %d coeff %d row %d: HPS %d, exact CRT %d", k, c, i, hps.Els[k].Rows[i].Coeffs[c], v)
				}
			}
		}
	}
}

func TestMultiplicativeDepth(t *testing.T) {
	const tmod = 2
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(7)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	one := NewPlaintext(p)
	one.Coeffs[0] = 1
	ct := enc.Encrypt(one)
	depth := p.SupportedDepth()
	if depth < 1 {
		t.Skip("test parameters support no multiplications")
	}
	budgets := []int{NoiseBudget(p, sk, ct)}
	for d := 0; d < depth; d++ {
		ct = ev.Mul(ct, ct, rk)
		budgets = append(budgets, NoiseBudget(p, sk, ct))
		if got := dec.Decrypt(ct); got.Coeffs[0] != 1 {
			t.Fatalf("1^2 chain broke at depth %d (budgets %v)", d+1, budgets)
		}
	}
	// Budget must be strictly decreasing.
	for i := 1; i < len(budgets); i++ {
		if budgets[i] >= budgets[i-1] {
			t.Fatalf("noise budget did not decrease: %v", budgets)
		}
	}
}

func TestMulNoRelinRequiresDegree1(t *testing.T) {
	p := testParams(t, 17)
	ev := NewEvaluator(p)
	ct3 := NewCiphertext(p, 3)
	ct2 := NewCiphertext(p, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.MulNoRelin(ct3, ct2)
}

func TestRelinearizeRequiresDegree2(t *testing.T) {
	p := testParams(t, 17)
	prng := sampler.NewPRNG(8)
	kg := NewKeyGenerator(p, prng)
	sk := kg.GenSecretKey()
	rk := kg.GenRelinKey(sk)
	ev := NewEvaluator(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.Relinearize(NewCiphertext(p, 2), rk)
}

func TestAddMixedDegrees(t *testing.T) {
	const tmod = 257
	p := testParams(t, tmod)
	prng := sampler.NewPRNG(9)
	kg := NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	a := NewPlaintext(p)
	a.Coeffs[0] = 3
	b := NewPlaintext(p)
	b.Coeffs[0] = 4
	c := NewPlaintext(p)
	c.Coeffs[0] = 5
	ca, cb, cc := enc.Encrypt(a), enc.Encrypt(b), enc.Encrypt(c)

	// (a·b) + c with a degree-2 left operand.
	prod := ev.MulNoRelin(ca, cb)
	sum := ev.Add(prod, cc)
	if got := dec.Decrypt(sum); got.Coeffs[0] != 17 {
		t.Fatalf("3·4+5 = %d, want 17", got.Coeffs[0])
	}
	// Symmetric order.
	sum2 := ev.Add(cc, prod)
	if got := dec.Decrypt(sum2); got.Coeffs[0] != 17 {
		t.Fatalf("5+3·4 = %d, want 17", got.Coeffs[0])
	}
}

func TestCiphertextSerialization(t *testing.T) {
	p := testParams(t, 17)
	prng := sampler.NewPRNG(10)
	kg := NewKeyGenerator(p, prng)
	sk, pk, _ := kg.GenKeys()
	enc := NewEncryptor(p, pk, prng)
	_ = sk

	pt := NewPlaintext(p)
	pt.Coeffs[0] = 7
	ct := enc.Encrypt(pt)

	var buf writerBuffer
	if err := ct.WriteTo(&buf, p); err != nil {
		t.Fatal(err)
	}
	if len(buf.b) != ct.ByteSize(p) {
		t.Fatalf("serialized %d bytes, ByteSize says %d", len(buf.b), ct.ByteSize(p))
	}
	got, err := ReadCiphertext(&readerBuffer{b: buf.b}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ct) {
		t.Fatal("serialization round trip failed")
	}
	// The byte-slice entry points are the same codec (internal/rlwe tests it
	// in depth): same bytes out, same length in, same value back.
	app, err := ct.AppendTo(nil, p)
	if err != nil || !bytes.Equal(app, buf.b) {
		t.Fatalf("AppendTo and WriteTo disagree (%v)", err)
	}
	if n, err := p.Wire().Check(app); err != nil || n != len(app) {
		t.Fatalf("in-place check = (%d, %v), want %d", n, err, len(app))
	}
	into := NewCiphertext(p, 3)
	if n, err := into.Decode(app, p); err != nil || n != len(app) || !into.Equal(ct) {
		t.Fatalf("Decode = (%d, %v), equal %v", n, err, into.Equal(ct))
	}

	// Corrupt a residue beyond its modulus: must be rejected.
	bad := append([]byte(nil), buf.b...)
	bad[8] = 0xff
	bad[9] = 0xff
	bad[10] = 0xff
	bad[11] = 0xff
	if _, err := ReadCiphertext(&readerBuffer{b: bad}, p); err == nil {
		t.Fatal("expected rejection of out-of-range residue")
	}
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type readerBuffer struct {
	b   []byte
	off int
}

func (r *readerBuffer) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off += n
	if n == 0 {
		return 0, errEOF
	}
	return n, nil
}

var errEOF = errString("eof")

type errString string

func (e errString) Error() string { return string(e) }
