package cloud

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

type ckksTestSystem struct {
	*testSystem
	cp   *ckks.Params
	csk  *ckks.SecretKey
	cpk  *ckks.PublicKey
	cenc *ckks.Encoder
}

// newCKKSTestSystem builds a dual-scheme system: the BFV substrate from
// newTestSystem plus CKKS params, keys, and engine wiring under the default
// tenant (relin key and a rotation-by-1 Galois key).
func newCKKSTestSystem(t testing.TB) *ckksTestSystem {
	t.Helper()
	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(99)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	eng, err := engine.New(engine.Config{Params: params, CKKSParams: cp, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	eng.SetRelinKey(DefaultTenant, rk)

	cprng := sampler.NewPRNG(41)
	ckg := ckks.NewKeyGenerator(cp, cprng)
	csk, cpk, crk := ckg.GenKeys()
	eng.SetCKKSRelinKey(DefaultTenant, crk)
	eng.SetCKKSGaloisKey(DefaultTenant, ckg.GenGaloisKey(csk, cp.GaloisElementForRotation(1)))
	return &ckksTestSystem{
		testSystem: &testSystem{params: params, sk: sk, pk: pk, rk: rk, eng: eng},
		cp:         cp,
		csk:        csk,
		cpk:        cpk,
		cenc:       ckks.NewEncoder(cp),
	}
}

func (ts *ckksTestSystem) encryptVals(t testing.TB, vals []float64) *ckks.Ciphertext {
	t.Helper()
	pt, err := ts.cenc.Encode(vals, ts.cp.MaxLevel(), ts.cp.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return ckks.NewEncryptor(ts.cp, ts.cpk, sampler.NewPRNG(7)).Encrypt(pt)
}

func (ts *ckksTestSystem) decode(ct *ckks.Ciphertext) []float64 {
	return ts.cenc.Decode(ckks.NewDecryptor(ts.cp, ts.csk).Decrypt(ct))
}

func startCKKSServer(t *testing.T, ts *ckksTestSystem) (*Server, string) {
	t.Helper()
	srv := NewServer(ts.params, ts.eng, nil)
	srv.CKKSParams = ts.cp
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("server exited with %v", err)
		}
	})
	return srv, addr
}

func TestCKKSRequestResponseRoundTrip(t *testing.T) {
	ts := newCKKSTestSystem(t)
	n := ts.cp.Slots()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%9)/10.0 - 0.4
	}
	a := ts.encryptVals(t, vals)
	b := ts.encryptVals(t, vals)

	var buf bytes.Buffer
	req := &Request{Ver: ProtoV2, ID: 3, Cmd: CmdCKKSRotate, CA: a, R: 1}
	if err := WriteRequest(&buf, ts.params, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestCKKS(&buf, ts.params, ts.cp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != CmdCKKSRotate || got.R != 1 || got.CA == nil || got.CA.Level() != a.Level() {
		t.Fatalf("rotate request round trip: %+v", got)
	}

	buf.Reset()
	req = &Request{Ver: ProtoV2, ID: 4, Cmd: CmdCKKSMul, CA: a, CB: b}
	if err := WriteRequest(&buf, ts.params, req); err != nil {
		t.Fatal(err)
	}
	got, err = ReadRequestCKKS(&buf, ts.params, ts.cp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != CmdCKKSMul || got.CA == nil || got.CB == nil {
		t.Fatalf("mul request round trip: %+v", got)
	}
	if got.CA.Scale != a.Scale {
		t.Fatalf("scale drifted through the wire: %g != %g", got.CA.Scale, a.Scale)
	}

	// A server without CKKS params must refuse the command as malformed
	// rather than misframe the stream.
	buf.Reset()
	if err := WriteRequest(&buf, ts.params, &Request{Ver: ProtoV2, ID: 5, Cmd: CmdCKKSAdd, CA: a, CB: b}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequestCKKS(&buf, ts.params, nil); err == nil {
		t.Fatal("ckks request accepted by a server without CKKS params")
	}

	// Response round trip carries the CKKS result.
	buf.Reset()
	if err := WriteResponse(&buf, ts.params, &Response{Ver: ProtoV2, ID: 4, CKKSResult: a, ComputeNanos: 777}); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadCKKSResponseV(&buf, ts.cp, ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CKKSResult == nil || resp.ComputeNanos != 777 {
		t.Fatalf("ckks response round trip: %+v", resp)
	}
	diff := 0.0
	gotVals, wantVals := ts.decode(resp.CKKSResult), ts.decode(a)
	for i := range gotVals {
		diff = math.Max(diff, math.Abs(gotVals[i]-wantVals[i]))
	}
	if diff != 0 {
		t.Fatalf("ckks result changed through response framing: max diff %g", diff)
	}
}

func TestCKKSServing(t *testing.T) {
	ts := newCKKSTestSystem(t)
	_, addr := startCKKSServer(t, ts)

	cl, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	info, err := cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !info.CKKS {
		t.Fatal("server does not advertise CKKS")
	}

	// Before EnableCKKS the client refuses locally, leaving the stream usable.
	ctProbe := ckks.NewCiphertext(ts.cp, 2, ts.cp.MaxLevel())
	if _, _, err := cl.CKKSAdd(ctProbe, ctProbe); err == nil {
		t.Fatal("ckks command succeeded without EnableCKKS")
	}
	if cl.Broken() {
		t.Fatal("local refusal broke the connection")
	}
	cl.EnableCKKS(ts.cp)

	n := ts.cp.Slots()
	xs := make([]float64, n)
	ws := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%7)/10.0 - 0.3
		ws[i] = float64(i%5)/10.0 - 0.2
	}
	ctX := ts.encryptVals(t, xs)
	ctW := ts.encryptVals(t, ws)

	check := func(name string, ct *ckks.Ciphertext, want func(i int) float64, tol float64) {
		t.Helper()
		got := ts.decode(ct)
		for i := 0; i < n; i++ {
			if d := math.Abs(got[i] - want(i)); d > tol {
				t.Fatalf("%s slot %d: got %g want %g (err %g)", name, i, got[i], want(i), d)
			}
		}
	}

	sum, _, err := cl.CKKSAdd(ctX, ctW)
	if err != nil {
		t.Fatal(err)
	}
	check("add", sum, func(i int) float64 { return xs[i] + ws[i] }, 1e-4)

	prod, dur, err := cl.CKKSMul(ctX, ctW)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("mul reported no compute time")
	}
	if prod.Level() != ctX.Level()-1 {
		t.Fatalf("mul result level %d, want %d", prod.Level(), ctX.Level()-1)
	}
	check("mul", prod, func(i int) float64 { return xs[i] * ws[i] }, 1e-3)

	// Mismatched levels align server-side; client never tracks the chain.
	deeper, _, err := cl.CKKSMul(ctX, prod)
	if err != nil {
		t.Fatal(err)
	}
	check("mul-mixed", deeper, func(i int) float64 { return xs[i] * xs[i] * ws[i] }, 1e-3)

	rot, _, err := cl.CKKSRotate(ctX, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("rotate", rot, func(i int) float64 { return xs[(i+1)%n] }, 1e-4)

	// BFV traffic keeps working on the same connection after CKKS exchanges.
	fa := ts.encrypt(t, 5)
	fb := ts.encrypt(t, 6)
	fsum, _, err := cl.Add(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.decrypt(fsum); got != 11 {
		t.Fatalf("bfv add after ckks traffic: got %d, want 11", got)
	}
}

// TestExchangeRefusesCKKSWithoutLayout: a reply is framed under its request's
// codec, so a CKKS frame encoded under a BFV set alone — no CKKS layout to
// frame the answer with — is refused by both transports, typed, before a byte
// is written (the node serves nothing), and the connection carries a BFV op
// right after as if nothing had happened. It used to be written, answered, and
// then dereference a nil CKKS parameter set while framing the reply.
func TestExchangeRefusesCKKSWithoutLayout(t *testing.T) {
	ts := newCKKSTestSystem(t)
	srv, addr := startCKKSServer(t, ts)
	ct := ts.encryptVals(t, []float64{0.5, -0.25})
	f, err := codecFor(ts.params, nil).encode(&Request{Cmd: CmdCKKSAdd, CA: ct, CB: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	cl, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mc, err := DialMux(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	ctx := context.Background()
	for name, tr := range map[string]interface {
		Exchange(context.Context, *Frame) (*RawReply, error)
		AddCtx(context.Context, *fv.Ciphertext, *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error)
		Broken() bool
	}{"sequential": cl, "mux": mc} {
		served := srv.Served()
		if _, err := tr.Exchange(ctx, f); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("%s: exchange returned %v, want ErrMalformedRequest", name, err)
		}
		if tr.Broken() || srv.Served() != served {
			t.Errorf("%s: the refusal broke the connection (%v) or reached the node (%d ops served)", name, tr.Broken(), srv.Served()-served)
		}
		sum, _, err := tr.AddCtx(ctx, ts.encrypt(t, 5), ts.encrypt(t, 6))
		if err != nil || ts.decrypt(sum) != 11 {
			t.Errorf("%s: BFV add after the refusal: %v", name, err)
		}
	}
}

func TestCKKSServerWithoutParams(t *testing.T) {
	ts := newCKKSTestSystem(t)
	// Plain BFV server: no CKKSParams. CKKS frames must be rejected as
	// protocol errors without killing the listener.
	_, addr := startServer(t, ts.testSystem)

	cl, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableCKKS(ts.cp)

	vals := make([]float64, ts.cp.Slots())
	ct := ts.encryptVals(t, vals)
	if _, _, err := cl.CKKSAdd(ct, ct); err == nil {
		t.Fatal("ckks command succeeded against a BFV-only server")
	}
}
