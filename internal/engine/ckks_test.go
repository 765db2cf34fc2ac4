package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/sampler"
)

type ckksEngineEnv struct {
	eng  *Engine
	p    *ckks.Params
	sk   *ckks.SecretKey
	enc  *ckks.Encoder
	encr *ckks.Encryptor
}

func newCKKSEngineEnv(t *testing.T, workers int) *ckksEngineEnv {
	t.Helper()
	fvParams, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Params: fvParams, CKKSParams: p, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Shutdown(context.Background()) })

	prng := sampler.NewPRNG(77)
	kg := ckks.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	eng.SetCKKSRelinKey("", rk)
	eng.SetCKKSGaloisKey("", kg.GenGaloisKey(sk, p.GaloisElementForRotation(1)))
	return &ckksEngineEnv{
		eng:  eng,
		p:    p,
		sk:   sk,
		enc:  ckks.NewEncoder(p),
		encr: ckks.NewEncryptor(p, pk, prng),
	}
}

func (env *ckksEngineEnv) encrypt(t *testing.T, vals []float64) *ckks.Ciphertext {
	t.Helper()
	pt, err := env.enc.Encode(vals, env.p.MaxLevel(), env.p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return env.encr.Encrypt(pt)
}

func (env *ckksEngineEnv) decode(ct *ckks.Ciphertext) []float64 {
	return env.enc.Decode(ckks.NewDecryptor(env.p, env.sk).Decrypt(ct))
}

func (env *ckksEngineEnv) submit(t *testing.T, op Op) *Result {
	t.Helper()
	res, err := env.eng.Submit(context.Background(), op)
	if err != nil {
		t.Fatalf("%v: %v", op.Kind, err)
	}
	if res.CCt == nil {
		t.Fatalf("%v: no CKKS result ciphertext", op.Kind)
	}
	return res
}

func TestEngineCKKSOps(t *testing.T) {
	env := newCKKSEngineEnv(t, 2)
	n := env.p.Slots()
	xs := make([]float64, n)
	ws := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%7)/10.0 - 0.3
		ws[i] = float64(i%5)/10.0 - 0.2
	}
	ctX := env.encrypt(t, xs)
	ctW := env.encrypt(t, ws)

	check := func(name string, ct *ckks.Ciphertext, want func(i int) float64, tol float64) {
		t.Helper()
		got := env.decode(ct)
		for i := 0; i < n; i++ {
			if d := math.Abs(got[i] - want(i)); d > tol {
				t.Fatalf("%s slot %d: got %g, want %g (err %g)", name, i, got[i], want(i), d)
			}
		}
	}

	sum := env.submit(t, Op{Kind: OpCKKSAdd, CA: ctX, CB: ctW})
	check("add", sum.CCt, func(i int) float64 { return xs[i] + ws[i] }, 1e-4)

	prod := env.submit(t, Op{Kind: OpCKKSMul, CA: ctX, CB: ctW})
	if prod.CCt.Level() != ctX.Level()-1 {
		t.Fatalf("mul result level %d, want %d", prod.CCt.Level(), ctX.Level()-1)
	}
	check("mul", prod.CCt, func(i int) float64 { return xs[i] * ws[i] }, 1e-3)

	// Mismatched levels auto-align server-side (fresh × rescaled).
	mixed := env.submit(t, Op{Kind: OpCKKSMul, CA: ctX, CB: prod.CCt})
	check("mul-mixed", mixed.CCt, func(i int) float64 { return xs[i] * xs[i] * ws[i] }, 1e-3)

	rot := env.submit(t, Op{Kind: OpCKKSRotate, CA: ctX, R: 1})
	check("rotate", rot.CCt, func(i int) float64 { return xs[(i+1)%n] }, 1e-4)

	ap := env.submit(t, Op{Kind: OpCKKSAddPlain, CA: ctX, Plain: ws})
	check("add_plain", ap.CCt, func(i int) float64 { return xs[i] + ws[i] }, 1e-4)

	mp := env.submit(t, Op{Kind: OpCKKSMulPlain, CA: ctX, Plain: ws})
	if mp.CCt.Level() != ctX.Level()-1 {
		t.Fatalf("mul_plain level %d, want %d", mp.CCt.Level(), ctX.Level()-1)
	}
	if mp.CCt.Scale != env.p.DefaultScale() {
		t.Fatalf("mul_plain scale %g, want default %g", mp.CCt.Scale, env.p.DefaultScale())
	}
	check("mul_plain", mp.CCt, func(i int) float64 { return xs[i] * ws[i] }, 1e-3)
}

func TestEngineCKKSKeyErrors(t *testing.T) {
	env := newCKKSEngineEnv(t, 1)
	vals := make([]float64, env.p.Slots())
	ct := env.encrypt(t, vals)

	// Unregistered tenant: typed ErrNoKey for both key-consuming kinds.
	if _, err := env.eng.Submit(context.Background(), Op{Kind: OpCKKSMul, Tenant: "ghost", CA: ct, CB: ct}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("mul without key: %v, want ErrNoKey", err)
	}
	if _, err := env.eng.Submit(context.Background(), Op{Kind: OpCKKSRotate, Tenant: "ghost", CA: ct, R: 1}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("rotate without key: %v, want ErrNoKey", err)
	}
	// Unprovisioned rotation amount under the default tenant too.
	if _, err := env.eng.Submit(context.Background(), Op{Kind: OpCKKSRotate, CA: ct, R: 3}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("rotate by 3 without key: %v, want ErrNoKey", err)
	}
}

func TestEngineCKKSUnavailable(t *testing.T) {
	fvParams, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Params: fvParams, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown(context.Background())
	p, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ct := ckks.NewCiphertext(p, 1, p.MaxLevel())
	if _, err := eng.Submit(context.Background(), Op{Kind: OpCKKSAdd, CA: ct, CB: ct}); !errors.Is(err, ErrCKKSUnavailable) {
		t.Fatalf("ckks on a BFV-only engine: %v, want ErrCKKSUnavailable", err)
	}
}

// The key store sizes a CKKS key's DMA stream from its level bundles: a
// level-ℓ bundle is two vectors of ℓ+1 digits, each an (ℓ+1 chain + p*)-row
// polynomial of 32-bit words, and a full key streams every level from 1 up.
func TestCKKSKeyStreamBytes(t *testing.T) {
	p, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := ckksKeyBytes(p, 2) - ckksKeyBytes(p, 1); got != 2*3*4*p.N()*4 {
		t.Fatalf("level-2 bundle = %d bytes, want %d", got, 2*3*4*p.N()*4)
	}
	want := 0
	for l := 1; l <= p.MaxLevel(); l++ {
		want += 2 * (l + 1) * (l + 2) * p.N() * 4
	}
	if got := ckksKeyBytes(p, p.MaxLevel()); got != want {
		t.Fatalf("ckksKeyBytes = %d, want %d", got, want)
	}
}
