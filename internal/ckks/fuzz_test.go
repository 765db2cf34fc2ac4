package ckks

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/poly"
	"repro/internal/sampler"
)

// Fuzz targets: the CKKS key readers face untrusted bytes (tenant key uploads
// arrive over the wire), so they must never panic and must only ever return
// valid objects or errors. The encoder round-trip target checks the
// approximate-arithmetic contract directly: any finite bounded slot vector
// must survive encode → decode within the scale's precision. `go test` runs
// the seed corpus; `go test -fuzz FuzzDecodeCKKSKeys ./internal/ckks`
// explores further.

func FuzzDecodeCKKSKeys(f *testing.F) {
	p, err := NewParams(TestConfig())
	if err != nil {
		f.Fatal(err)
	}
	kg := NewKeyGenerator(p, sampler.NewPRNG(42))
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))

	seed := func(write func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	skV2 := seed(func(b *bytes.Buffer) error { return WriteSecretKeyV2(b, p, sk) })
	// The retired unchecksummed container: must be refused at the magic.
	skV1 := bytes.Clone(skV2[:len(skV2)-8])
	skV1[3] = '1'
	f.Add(skV1)
	f.Add(skV2)
	f.Add(skV2[:len(skV2)/2])
	f.Add(seed(func(b *bytes.Buffer) error { return WritePublicKeyV2(b, p, pk) }))
	f.Add(seed(func(b *bytes.Buffer) error { return WriteRelinKeyV2(b, p, rk) }))
	f.Add(seed(func(b *bytes.Buffer) error { return WriteGaloisKeyV2(b, p, gk) }))
	f.Add([]byte("CKk2\x04\x00\x00\x00null"))
	f.Add([]byte{})
	// The retired per-level evaluation-key layout: refused as corrupt.
	f.Add(seed(func(b *bytes.Buffer) error { return writeRetiredLayout(b, p, 0, &rk.levelViews) }))
	f.Add(seed(func(b *bytes.Buffer) error { return writeRetiredLayout(b, p, gk.G, &gk.levelViews) }))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each reader must either reject or return a structurally valid key;
		// none may panic on arbitrary input.
		if p2, sk2, err := ReadSecretKey(bytes.NewReader(data)); err == nil {
			if sk2.S.N() != p2.N() || len(sk2.S.Rows) != len(p2.AllMods) {
				t.Fatal("accepted secret key with wrong shape")
			}
			if !bytes.HasPrefix(data, []byte("CKk2")) {
				t.Fatalf("accepted a key file with magic %q", data[:4])
			}
		}
		if p2, pk2, err := ReadPublicKey(bytes.NewReader(data)); err == nil {
			if pk2.P0Hat.N() != p2.N() || len(pk2.P0Hat.Rows) != len(p2.QMods) {
				t.Fatal("accepted public key with wrong shape")
			}
		}
		if p2, rk2, err := ReadRelinKey(bytes.NewReader(data)); err == nil {
			checkKeyShape(t, p2, &rk2.levelViews)
		}
		if p2, gk2, err := ReadGaloisKey(bytes.NewReader(data)); err == nil {
			if gk2.G%2 == 0 || gk2.G < 1 || gk2.G >= 2*p2.N() {
				t.Fatalf("accepted Galois key with element %d", gk2.G)
			}
			checkKeyShape(t, p2, &gk2.levelViews)
		}
	})
}

// checkKeyShape fails unless an accepted evaluation key is L+1 digit pairs
// over KSMods[L] whose level-ℓ view is ℓ+1 pairs over KSMods[ℓ].
func checkKeyShape(t *testing.T, p *Params, v *levelViews) {
	t.Helper()
	for l := 0; l <= p.MaxLevel(); l++ {
		lk := v.At(l)
		if len(lk.Ks0Hat) != l+1 || len(lk.Ks1Hat) != l+1 {
			t.Fatalf("accepted key's level-%d view has %d+%d digits", l, len(lk.Ks0Hat), len(lk.Ks1Hat))
		}
		for i := range lk.Ks0Hat {
			for _, x := range []poly.RNSPoly{lk.Ks0Hat[i], lk.Ks1Hat[i]} {
				if x.N() != p.N() || x.Level() != len(p.KSMods[l]) {
					t.Fatalf("accepted key's level-%d digit %d is %d rows of %d", l, i, x.Level(), x.N())
				}
				for j, row := range x.Rows {
					if row.Mod.Q != p.KSMods[l][j].Q {
						t.Fatalf("accepted key's level-%d digit %d row %d is mod %d, want %d", l, i, j, row.Mod.Q, p.KSMods[l][j].Q)
					}
				}
			}
		}
	}
}

func FuzzEncoderRoundTrip(f *testing.F) {
	p, err := NewParams(TestConfig())
	if err != nil {
		f.Fatal(err)
	}
	enc := NewEncoder(p)
	f.Add(0.0, 1.0, 3, uint8(0))
	f.Add(-0.75, 0.125, 1, uint8(7))
	f.Add(0.999, -0.999, 5, uint8(255))
	f.Fuzz(func(t *testing.T, a, b float64, stride int, phase uint8) {
		// Clamp the fuzz inputs into the encoder's contract: finite slot
		// values of bounded magnitude at a valid level.
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return
		}
		if math.Abs(a) > 16 || math.Abs(b) > 16 {
			return
		}
		if stride < 1 {
			stride = 1
		}
		slots := p.Slots()
		vals := make([]float64, slots)
		for i := range vals {
			if (i+int(phase))%stride == 0 {
				vals[i] = a
			} else {
				vals[i] = b
			}
		}
		// Level 0 has no headroom (Δ ≈ q₀, coefficients wrap for any
		// non-tiny message) — it exists only as the decrypt-after-rescale
		// floor, so the round-trip contract covers levels ≥ 1.
		level := 1 + int(phase)%p.MaxLevel()
		pt, err := enc.Encode(vals, level, p.DefaultScale())
		if err != nil {
			t.Fatalf("encode of valid slots failed: %v", err)
		}
		got := enc.Decode(pt)
		// At scale 2^30 with |v| ≤ 16 the embedding round-trip keeps every
		// slot within a comfortably loose 2^-18.
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > 1.0/(1<<18) {
				t.Fatalf("slot %d: encode/decode %v -> %v", i, vals[i], got[i])
			}
		}
	})
}
