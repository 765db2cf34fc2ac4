package fv

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/keyio"
	"repro/internal/sampler"
)

func TestKeySerializationRoundTrip(t *testing.T) {
	p := testParams(t, 65537)
	prng := sampler.NewPRNG(30)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()

	// Secret key.
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatal(err)
	}
	p2, sk2, err := ReadSecretKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cfg != p.Cfg {
		t.Fatal("config did not round trip")
	}
	if !sk2.S.Equal(sk.S) || !sk2.SHat.Equal(sk.SHat) {
		t.Fatal("secret key did not round trip")
	}

	// Public key: loaded key must decrypt what the original encrypts (and
	// vice versa via a fresh encryptor).
	buf.Reset()
	if err := WritePublicKeyV2(&buf, p, pk); err != nil {
		t.Fatal(err)
	}
	p3, pk2, err := ReadPublicKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !pk2.P0Hat.Equal(pk.P0Hat) || !pk2.P1Hat.Equal(pk.P1Hat) {
		t.Fatal("public key did not round trip")
	}
	enc := NewEncryptor(p3, pk2, prng)
	dec := NewDecryptor(p, sk)
	pt := NewPlaintext(p)
	pt.Coeffs[0] = 777
	if got := dec.Decrypt(enc.Encrypt(pt)); got.Coeffs[0] != 777 {
		t.Fatal("loaded public key produces undecryptable ciphertexts")
	}

	// Relin key: a multiplication with the loaded key must match one with
	// the original.
	buf.Reset()
	if err := WriteRelinKeyV2(&buf, p, rk); err != nil {
		t.Fatal(err)
	}
	_, rk2, err := ReadRelinKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(p)
	ie := NewIntegerEncoder(p)
	ca := enc.Encrypt(ie.Encode(21))
	cb := enc.Encrypt(ie.Encode(2))
	if !ev.Mul(ca, cb, rk2).Equal(ev.Mul(ca, cb, rk)) {
		t.Fatal("relin key did not round trip")
	}
}

func TestKeyIORejectsGarbage(t *testing.T) {
	if _, _, err := ReadSecretKey(bytes.NewReader([]byte("not a key file at all"))); err == nil {
		t.Fatal("garbage accepted as secret key")
	}
	// The retired unchecksummed container — a current file without its
	// trailer, under the "FVk1" magic — is not a key file any more.
	p := testParams(t, 65537)
	sk, _, _ := NewKeyGenerator(p, sampler.NewPRNG(30)).GenKeys()
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Clone(buf.Bytes()[:buf.Len()-8])
	v1[3] = '1'
	if _, _, err := ReadSecretKey(bytes.NewReader(v1)); !errors.Is(err, keyio.ErrBadMagic) {
		t.Fatalf("v1 container: err %v, want ErrBadMagic", err)
	}
}

// TestKeyIOV2RoundTrip: every key kind must survive a write/read cycle.
func TestKeyIOV2RoundTrip(t *testing.T) {
	p := testParams(t, 65537)
	prng := sampler.NewPRNG(31)
	kg := NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()

	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatal(err)
	}
	p2, sk2, err := ReadSecretKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cfg != p.Cfg || !sk2.S.Equal(sk.S) || !sk2.SHat.Equal(sk.SHat) {
		t.Fatal("v2 secret key did not round trip")
	}

	buf.Reset()
	if err := WritePublicKeyV2(&buf, p, pk); err != nil {
		t.Fatal(err)
	}
	if _, pk2, err := ReadPublicKey(&buf); err != nil {
		t.Fatal(err)
	} else if !pk2.P0Hat.Equal(pk.P0Hat) || !pk2.P1Hat.Equal(pk.P1Hat) {
		t.Fatal("v2 public key did not round trip")
	}

	buf.Reset()
	if err := WriteRelinKeyV2(&buf, p, rk); err != nil {
		t.Fatal(err)
	}
	if _, rk2, err := ReadRelinKey(&buf); err != nil {
		t.Fatal(err)
	} else if len(rk2.Rlk0Hat) != len(rk.Rlk0Hat) {
		t.Fatal("v2 relin key did not round trip")
	}
}

// TestKeyIOV2DetectsCorruption flips one bit at a time through an entire v2
// secret-key file: every single-bit corruption must be rejected with
// ErrCorruptKey — none may load as a (wrong) key.
func TestKeyIOV2DetectsCorruption(t *testing.T) {
	p := testParams(t, 65537)
	kg := NewKeyGenerator(p, sampler.NewPRNG(32))
	sk, _, _ := kg.GenKeys()
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	// Exhaustive over bytes is slow at file sizes of a few hundred KB; a
	// fixed stride still visits the magic, header, body, and trailer.
	for off := 0; off < len(orig); off += 97 {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(orig)
			mut[off] ^= 1 << bit
			_, _, err := ReadSecretKey(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", off, bit)
			}
			// Flips inside the magic make the file unrecognizable (a
			// different typed error); everything after must be ErrCorruptKey.
			if off >= 4 && !errors.Is(err, ErrCorruptKey) {
				t.Fatalf("bit flip at byte %d bit %d: error not typed: %v", off, bit, err)
			}
		}
	}
}

// TestKeyIOV2DetectsTruncation cuts a v2 public-key file at a sweep of
// lengths: every truncation must fail with ErrCorruptKey.
func TestKeyIOV2DetectsTruncation(t *testing.T) {
	p := testParams(t, 65537)
	kg := NewKeyGenerator(p, sampler.NewPRNG(33))
	_, pk, _ := kg.GenKeys()
	var buf bytes.Buffer
	if err := WritePublicKeyV2(&buf, p, pk); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	cuts := []int{4, 5, len(orig) / 4, len(orig) / 2, len(orig) - 9, len(orig) - 8, len(orig) - 1}
	for _, cut := range cuts {
		_, _, err := ReadPublicKey(bytes.NewReader(orig[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(orig))
		}
		if !errors.Is(err, ErrCorruptKey) {
			t.Fatalf("truncation at %d: error not typed: %v", cut, err)
		}
	}
}

// forgedKeyFiles returns evaluation-key containers an attacker can make: each
// is a well-formed, correctly checksummed file (the trailer is a checksum,
// not a MAC — the writer stamps whatever the struct says) whose meta words
// or component count no evaluator or co-processor could use. Three of them
// took the serving node down before the body readers checked shape.
func forgedKeyFiles(t testing.TB, p *Params) map[string][]byte {
	t.Helper()
	kg := NewKeyGenerator(p, sampler.NewPRNG(34))
	sk, _, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, 3)

	// relin writes the key's first comps components under the given meta
	// words: variant, digit width, ℓ, component count.
	q := uint32(p.Cfg.QCount)
	relin := func(comps int, meta ...uint32) []byte {
		var buf bytes.Buffer
		if err := keyio.WriteKey(&buf, fvScheme, p.Cfg, func(w io.Writer) error {
			if err := keyio.WriteWords(w, meta...); err != nil {
				return err
			}
			return keyio.WritePairs(w, p.QMods, p.N(), rk.Rlk0Hat[:comps], rk.Rlk1Hat[:comps])
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	short := *gk
	short.Ks0Hat, short.Ks1Hat = gk.Ks0Hat[:len(gk.Ks0Hat)-1], gk.Ks1Hat[:len(gk.Ks1Hat)-1]
	var shortGalois bytes.Buffer
	if err := WriteGaloisKeyV2(&shortGalois, p, &short); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"relin: variant 7":                      relin(int(q), 7, 0, q, q),
		"relin: traditional, 2 digits of 90":    relin(2, 1, 90, 2, 2),
		"relin: traditional, logW = 0":          relin(int(q), 1, 0, q, q),
		"relin: traditional, logW huge":         relin(int(q), 1, 1<<32-1, q, q),
		"relin: ℓ = 2^32-1":                     relin(int(q), 0, 0, 1<<32-1, q),
		"relin: RNS gadget one component short": relin(int(q)-1, 0, 0, q-1, q-1),
		"relin: RNS gadget with a digit width":  relin(int(q), 0, 30, q, q),
		"galois: one component short":           shortGalois.Bytes(),
	}
}

// TestKeyReadersRefuseUnusableKeys: every forged container stops at the
// reader with ErrCorruptKey — under either reader, since an import path
// tries the one its section tag names — while an honest relin key and a
// Galois key still load.
func TestKeyReadersRefuseUnusableKeys(t *testing.T) {
	p := testParams(t, 65537)
	for name, file := range forgedKeyFiles(t, p) {
		if _, _, err := ReadRelinKey(bytes.NewReader(file)); !errors.Is(err, ErrCorruptKey) {
			t.Errorf("%s: ReadRelinKey returned %v, want ErrCorruptKey", name, err)
		}
		if _, _, err := ReadGaloisKey(bytes.NewReader(file)); !errors.Is(err, ErrCorruptKey) {
			t.Errorf("%s: ReadGaloisKey returned %v, want ErrCorruptKey", name, err)
		}
	}

	kg := NewKeyGenerator(p, sampler.NewPRNG(35))
	sk, _, hps := kg.GenKeys()
	var relin bytes.Buffer
	if err := WriteRelinKeyV2(&relin, p, hps); err != nil {
		t.Fatal(err)
	}
	if _, got, err := ReadRelinKey(&relin); err != nil {
		t.Fatalf("honest relin key refused: %v", err)
	} else if !reflect.DeepEqual(got, hps) {
		t.Fatal("honest relin key did not round trip")
	}
	var buf bytes.Buffer
	if err := WriteGaloisKeyV2(&buf, p, kg.GenGaloisKey(sk, 2*p.N()-1)); err != nil {
		t.Fatal(err)
	}
	if _, gk, err := ReadGaloisKey(&buf); err != nil || gk.G != 2*p.N()-1 || len(gk.Ks0Hat) != p.Cfg.QCount {
		t.Fatalf("honest Galois key refused or reshaped: %v", err)
	}
}
