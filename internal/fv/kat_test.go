package fv

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sampler"
)

// Known-answer test: the full keygen → encrypt → evaluate → decrypt pipeline
// at fixed PRNG seeds must reproduce the golden SHA-256 digests checked into
// testdata/kat_v1.json. Any change to a kernel that is not bit-identical —
// a different reduction discipline in the NTT, a reordered noise sample, a
// modified lift/scale rounding — shows up here as a digest mismatch even if
// the scheme still decrypts correctly. Regenerate with
//
//	go test -run TestKnownAnswerVectors ./internal/fv -update-kat
//
// and audit the diff: digests may only change when the spec of the pipeline
// changes deliberately.

var updateKAT = flag.Bool("update-kat", false, "rewrite testdata/kat_v1.json from the current implementation")

const (
	katKeySeed = 42
	katEncSeed = 7
)

type katFile struct {
	Comment string            `json:"comment"`
	KeySeed uint64            `json:"key_seed"`
	EncSeed uint64            `json:"enc_seed"`
	T       uint64            `json:"t"`
	Digests map[string]string `json:"digests"`
}

func katDigests(t *testing.T) map[string]string {
	t.Helper()
	p := testParams(t, 257)

	kg := NewKeyGenerator(p, sampler.NewPRNG(katKeySeed))
	sk, pk, rk := kg.GenKeys()
	enc := NewEncryptor(p, pk, sampler.NewPRNG(katEncSeed))
	dec := NewDecryptor(p, sk)
	ev := NewEvaluator(p)

	ptA := NewPlaintext(p)
	ptB := NewPlaintext(p)
	for i := range ptA.Coeffs {
		ptA.Coeffs[i] = uint64(i) % p.T()
		ptB.Coeffs[i] = uint64(3*i+1) % p.T()
	}
	ctA, ctB := enc.Encrypt(ptA), enc.Encrypt(ptB)
	sum := ev.Add(ctA, ctB)
	prod := ev.Mul(ctA, ctB, rk)

	hash := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		d := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(d[:])
	}
	hashCt := func(ct *Ciphertext) string {
		return hash(func(b *bytes.Buffer) error { return ct.WriteTo(b, p) })
	}
	hashPt := func(pt *Plaintext) string {
		return hash(func(b *bytes.Buffer) error {
			return binary.Write(b, binary.LittleEndian, pt.Coeffs)
		})
	}

	return map[string]string{
		"secret_key": hash(func(b *bytes.Buffer) error { return WriteSecretKeyV2(b, p, sk) }),
		"public_key": hash(func(b *bytes.Buffer) error { return WritePublicKeyV2(b, p, pk) }),
		"relin_key":  hash(func(b *bytes.Buffer) error { return WriteRelinKeyV2(b, p, rk) }),
		"ct_a":       hashCt(ctA),
		"ct_b":       hashCt(ctB),
		"ct_sum":     hashCt(sum),
		"ct_prod":    hashCt(prod),
		"dec_sum":    hashPt(dec.Decrypt(sum)),
		"dec_prod":   hashPt(dec.Decrypt(prod)),
	}
}

func TestKnownAnswerVectors(t *testing.T) {
	path := filepath.Join("testdata", "kat_v1.json")
	got := katDigests(t)

	if *updateKAT {
		out := katFile{
			Comment: "Golden FV pipeline digests (TestConfig t=257). Regenerate with -update-kat; see kat_test.go.",
			KeySeed: katKeySeed,
			EncSeed: katEncSeed,
			T:       257,
			Digests: got,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-kat to create): %v", err)
	}
	var want katFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.KeySeed != katKeySeed || want.EncSeed != katEncSeed {
		t.Fatalf("golden file seeds (%d, %d) do not match the test's (%d, %d)",
			want.KeySeed, want.EncSeed, katKeySeed, katEncSeed)
	}
	for name, wantDigest := range want.Digests {
		if got[name] == "" {
			t.Errorf("golden file has digest %q the test no longer produces", name)
			continue
		}
		if got[name] != wantDigest {
			t.Errorf("%s digest changed:\n  got  %s\n  want %s", name, got[name], wantDigest)
		}
	}
	for name := range got {
		if _, ok := want.Digests[name]; !ok {
			t.Errorf("test produces digest %q missing from the golden file", name)
		}
	}
}
