package cloud

import (
	"context"
	"errors"
	"testing"
	"time"

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
