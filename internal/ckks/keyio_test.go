package ckks

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/fv"
	"repro/internal/keyio"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/sampler"
)

func keyioContext(t *testing.T) (*Params, *SecretKey, *PublicKey, *RelinKey, *GaloisKey) {
	t.Helper()
	p := testParams(t)
	kg := NewKeyGenerator(p, sampler.NewPRNG(42))
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
	return p, sk, pk, rk, gk
}

func TestSecretKeyRoundTrip(t *testing.T) {
	p, sk, _, _, _ := keyioContext(t)
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatalf("write: %v", err)
	}
	file := bytes.Clone(buf.Bytes())
	p2, sk2, err := ReadSecretKey(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if p2.Cfg != p.Cfg {
		t.Fatal("config changed in round trip")
	}
	for i := range sk.S.Rows {
		for c, v := range sk.S.Rows[i].Coeffs {
			if sk2.S.Rows[i].Coeffs[c] != v {
				t.Fatalf("secret row %d coeff %d changed", i, c)
			}
			if sk2.SHat.Rows[i].Coeffs[c] != sk.SHat.Rows[i].Coeffs[c] {
				t.Fatalf("derived sHat row %d coeff %d differs", i, c)
			}
		}
	}

	// The retired unchecksummed container — the same file without its
	// trailer, under the "CKk1" magic — is refused at the magic.
	v1 := file[:len(file)-8]
	v1[3] = '1'
	if _, _, err := ReadSecretKey(bytes.NewReader(v1)); !errors.Is(err, keyio.ErrBadMagic) {
		t.Fatalf("v1 container: err %v, want ErrBadMagic", err)
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	p, _, pk, _, _ := keyioContext(t)
	var buf bytes.Buffer
	if err := WritePublicKeyV2(&buf, p, pk); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, pk2, err := ReadPublicKey(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range pk.P0Hat.Rows {
		for c := range pk.P0Hat.Rows[i].Coeffs {
			if pk2.P0Hat.Rows[i].Coeffs[c] != pk.P0Hat.Rows[i].Coeffs[c] ||
				pk2.P1Hat.Rows[i].Coeffs[c] != pk.P1Hat.Rows[i].Coeffs[c] {
				t.Fatalf("public key row %d coeff %d changed", i, c)
			}
		}
	}
}

func TestRelinKeyRoundTrip(t *testing.T) {
	p, _, _, rk, _ := keyioContext(t)
	var buf bytes.Buffer
	if err := WriteRelinKeyV2(&buf, p, rk); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, rk2, err := ReadRelinKey(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for l := 0; l <= p.MaxLevel(); l++ {
		a, b := rk.At(l), rk2.At(l)
		for i := range a.Ks0Hat {
			for j := range a.Ks0Hat[i].Rows {
				for c := range a.Ks0Hat[i].Rows[j].Coeffs {
					if a.Ks0Hat[i].Rows[j].Coeffs[c] != b.Ks0Hat[i].Rows[j].Coeffs[c] ||
						a.Ks1Hat[i].Rows[j].Coeffs[c] != b.Ks1Hat[i].Rows[j].Coeffs[c] {
						t.Fatalf("relin level %d digit %d row %d coeff %d changed", l, i, j, c)
					}
				}
			}
		}
	}
}

func TestGaloisKeyRoundTrip(t *testing.T) {
	p, _, _, _, gk := keyioContext(t)
	var buf bytes.Buffer
	if err := WriteGaloisKeyV2(&buf, p, gk); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, gk2, err := ReadGaloisKey(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if gk2.G != gk.G {
		t.Fatalf("Galois element changed: %d vs %d", gk2.G, gk.G)
	}
	a, b := gk.At(p.MaxLevel()), gk2.At(p.MaxLevel())
	for i := range a.Ks0Hat {
		for j := range a.Ks0Hat[i].Rows {
			for c := range a.Ks0Hat[i].Rows[j].Coeffs {
				if a.Ks0Hat[i].Rows[j].Coeffs[c] != b.Ks0Hat[i].Rows[j].Coeffs[c] {
					t.Fatalf("galois digit %d row %d coeff %d changed", i, j, c)
				}
			}
		}
	}
}

// writeRetiredLayout writes a relin (g == 0) or Galois key in the retired
// per-level layout, under the unchanged container: the element words for a
// Galois key, a level count and one word of padding, then one bundle per
// level 1..L, each its ℓ+1 digit pairs over KSMods[ℓ] — here the views of
// the one top-level key, which have exactly that shape.
func writeRetiredLayout(w io.Writer, p *Params, g int, v *levelViews) error {
	return keyio.WriteKey(w, ckksScheme, p.Cfg, func(w io.Writer) error {
		if g != 0 {
			if err := keyio.WriteWords(w, uint32(g), 0); err != nil {
				return err
			}
		}
		if err := keyio.WriteWords(w, uint32(p.Cfg.QCount), 0); err != nil {
			return err
		}
		for l := 1; l <= p.MaxLevel(); l++ {
			lk := v.At(l)
			if err := keyio.WritePairs(w, p.KSMods[l], p.N(), lk.Ks0Hat, lk.Ks1Hat); err != nil {
				return err
			}
		}
		return nil
	})
}

// A key file in the retired per-level layout is refused as corrupt, never
// read as a key, and the one-key file it gave way to is at least 2.5×
// smaller.
func TestRetiredKeyLayoutRefused(t *testing.T) {
	p, _, _, rk, gk := keyioContext(t)
	var old, cur bytes.Buffer
	if err := writeRetiredLayout(&old, p, 0, &rk.levelViews); err != nil {
		t.Fatal(err)
	}
	if err := WriteRelinKeyV2(&cur, p, rk); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(old.Len()) / float64(cur.Len()); ratio < 2.5 {
		t.Fatalf("retired layout %d B, one key %d B: only %.2f× smaller", old.Len(), cur.Len(), ratio)
	}
	if _, k, err := ReadRelinKey(&old); !errors.Is(err, ErrCorruptKey) || k != nil {
		t.Fatalf("retired relin key layout: key %v, err %v, want ErrCorruptKey", k != nil, err)
	}
	old.Reset()
	if err := writeRetiredLayout(&old, p, gk.G, &gk.levelViews); err != nil {
		t.Fatal(err)
	}
	if _, k, err := ReadGaloisKey(&old); !errors.Is(err, ErrCorruptKey) || k != nil {
		t.Fatalf("retired Galois key layout: key %v, err %v, want ErrCorruptKey", k != nil, err)
	}
}

// Every single-bit flip in a v2 secret-key file must surface ErrCorruptKey
// (or a structural parse error), never a silently different key.
func TestV2BitFlipDetected(t *testing.T) {
	p, sk, _, _, _ := keyioContext(t)
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatalf("write: %v", err)
	}
	data := buf.Bytes()
	// Sample offsets across the file (every 101st byte keeps the test fast).
	for off := 4; off < len(data); off += 101 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, _, err := ReadSecretKey(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
}

func TestV2TruncationDetected(t *testing.T) {
	p, sk, _, _, _ := keyioContext(t)
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatalf("write: %v", err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, len(data) / 2, len(data) - 1} {
		if _, _, err := ReadSecretKey(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// A BFV key file must be rejected by the CKKS readers at the magic, and the
// error must be distinguishable from corruption.
func TestCrossSchemeRejected(t *testing.T) {
	fvParams, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatalf("fv params: %v", err)
	}
	fvKg := fv.NewKeyGenerator(fvParams, sampler.NewPRNG(7))
	fvSk := fvKg.GenSecretKey()
	var buf bytes.Buffer
	if err := fv.WriteSecretKeyV2(&buf, fvParams, fvSk); err != nil {
		t.Fatalf("fv write: %v", err)
	}
	_, _, err = ReadSecretKey(&buf)
	if err == nil {
		t.Fatal("BFV key file parsed as a CKKS key")
	}
	if errors.Is(err, ErrCorruptKey) {
		t.Fatalf("foreign scheme reported as corruption: %v", err)
	}
}

// writePolyRows is the row hasher kat_test.go pins plaintexts with: the key
// files' row packing over x's own shape.
func writePolyRows(w io.Writer, x poly.RNSPoly) error {
	mods := make([]ring.Modulus, len(x.Rows))
	for i, row := range x.Rows {
		mods[i] = row.Mod
	}
	return keyio.WriteRows(w, mods, x.N(), x)
}
