package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// TestKeyImportRefusesUnusableKeys: CmdKeyImport is served to any connection
// and a key container's trailer is a checksum, not a MAC, so a client can
// hand the node any key it likes. A relin key with an unknown variant, a
// 2^32-1 digit count or a zero-width positional gadget used to be installed
// and then crash the worker goroutine that first relinearized with it — the
// whole node, for every tenant (fv's TestKeyReadersRefuseUnusableKeys forges
// those meta words); a key short of components made the co-processor's digit
// loop compute a wrong product quietly. All of them are
// now a typed refusal at DecodeTenantKeys, nothing is installed, and the node
// keeps serving.
func TestKeyImportRefusesUnusableKeys(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)
	c, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	kg := fv.NewKeyGenerator(ts.params, sampler.NewPRNG(5))
	sk := kg.GenSecretKey()
	rk := kg.GenRelinKey(sk)
	gk := kg.GenGaloisKey(sk, 3)
	shortRelin := fv.RelinKey{Rlk0Hat: rk.Rlk0Hat[:1], Rlk1Hat: rk.Rlk1Hat[:1]}
	short := *gk
	short.Ks0Hat, short.Ks1Hat = gk.Ks0Hat[:1], gk.Ks1Hat[:1]
	forged := map[string]*engine.TenantKeySet{
		"under-length relin key":   {Relin: &shortRelin},
		"under-length Galois key":  {Galois: []*fv.GaloisKey{&short}},
		"honest relin, bad Galois": {Relin: rk, Galois: []*fv.GaloisKey{gk, &short}},
	}
	for name, ks := range forged {
		blob, err := EncodeTenantKeys(ts.params, nil, ks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeTenantKeys(blob, ts.params, nil); !errors.Is(err, ErrKeyBlob) || !errors.Is(err, fv.ErrCorruptKey) {
			t.Fatalf("%s: DecodeTenantKeys returned %v, want ErrKeyBlob wrapping ErrCorruptKey", name, err)
		}
		var se *ServerError
		if _, err := c.KeyImport(ctx, "mallory", blob); !errors.As(err, &se) {
			t.Fatalf("%s: KeyImport returned %v, want a server refusal", name, err)
		}
		if installed := ts.eng.ExportTenantKeys("mallory"); !installed.Empty() {
			t.Fatalf("%s: a refused import installed %d keys", name, installed.Count())
		}
	}

	// The honest set still imports, and the node still multiplies.
	blob, err := EncodeTenantKeys(ts.params, nil, &engine.TenantKeySet{Relin: rk, Galois: []*fv.GaloisKey{gk}})
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := c.KeyImport(ctx, "alice", blob); err != nil || ack.Keys != 2 {
		t.Fatalf("honest import: ack %+v, err %v", ack, err)
	}
	prod, _, err := c.Mul(ts.encrypt(t, 6), ts.encrypt(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.decrypt(prod); got != 42 {
		t.Fatalf("after the refused imports the node multiplies 6·7 = %d", got)
	}
}

// TestMuxCarriesTheLargestKeyBlob: a mux payload must carry every request
// the sequential framing admits. At the paper set a relinearization key and
// 30 Galois keys make a 36.5 MB key blob, inside the request bound; when the
// mux bound was a formula of its own (27.4 MB) the node took that import
// for a malformed frame and dropped the session, and every exchange in
// flight on it.
func TestMuxCarriesTheLargestKeyBlob(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-set keys")
	}
	params, err := fv.NewParams(fv.PaperConfig(65537))
	if err != nil {
		t.Fatal(err)
	}
	cparams, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cd   *codec
	}{{"BFV", codecFor(params, nil)}, {"BFV and CKKS", codecFor(params, cparams)}} {
		if c.cd.maxMuxPayload < c.cd.maxRequest {
			t.Errorf("%s at the paper set: mux payload bound %d below the request bound %d", c.name, c.cd.maxMuxPayload, c.cd.maxRequest)
		}
	}

	eng, err := engine.New(engine.Config{Params: params, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Shutdown(context.Background()) })
	_, addr := startServer(t, &testSystem{params: params, eng: eng})
	mc, err := DialMux(addr, params)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// The transport carries key containers, not key content: one Galois
	// key's components under 30 elements make a blob of the honest size.
	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(5))
	sk := kg.GenSecretKey()
	ks := &engine.TenantKeySet{Relin: kg.GenRelinKey(sk)}
	gk := kg.GenGaloisKey(sk, 3)
	for i := 0; i < 30; i++ {
		g := *gk
		g.G = 3 + 2*i
		ks.Galois = append(ks.Galois, &g)
	}
	blob, err := EncodeTenantKeys(params, nil, ks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	body, err := ReplyAs[Blob](mc.roundTrip(ctx, &Request{Cmd: CmdKeyImport, Tenant: "alice", Blob: blob}))
	if err != nil {
		t.Fatalf("importing a %d-byte key blob over mux: %v", len(blob), err)
	}
	var ack ImportAck
	if err := json.Unmarshal(body, &ack); err != nil || ack.Keys != 31 {
		t.Fatalf("import ack %q (%v), want 31 keys", body, err)
	}
}
