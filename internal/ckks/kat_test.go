package ckks

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sampler"
)

// Known-answer test: the full keygen → encode → encrypt → evaluate →
// rescale pipeline at fixed PRNG seeds must reproduce the golden SHA-256
// digests checked into testdata/kat_v1.json. CKKS plaintexts are approximate
// but the ciphertext bits are fully deterministic at fixed seeds — any
// change to a kernel that is not bit-identical (a reordered noise sample, a
// different ModDown rounding, a reshuffled keyswitch schedule) shows up here
// as a digest mismatch even if slot errors stay small. Regenerate with
//
//	go test -run TestKnownAnswerVectors ./internal/ckks -update-kat
//
// and audit the diff: digests may only change when the pipeline's spec
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
	Digests map[string]string `json:"digests"`
}

func katDigests(t *testing.T) map[string]string {
	t.Helper()
	p := testParams(t)

	kg := NewKeyGenerator(p, sampler.NewPRNG(katKeySeed))
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
	enc := NewEncoder(p)
	encr := NewEncryptor(p, pk, sampler.NewPRNG(katEncSeed))
	ev := NewEvaluator(p)

	slots := p.Slots()
	valsA := make([]float64, slots)
	valsB := make([]float64, slots)
	for i := 0; i < slots; i++ {
		valsA[i] = float64(i%17)/8.0 - 1
		valsB[i] = float64((3*i+1)%13)/6.0 - 1
	}
	L := p.MaxLevel()
	ptA, err := enc.Encode(valsA, L, p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ptB, err := enc.Encode(valsB, L, p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ctA, ctB := encr.Encrypt(ptA), encr.Encrypt(ptB)
	sum := ev.Add(ctA, ctB)
	prod := ev.Rescale(ev.Mul(ctA, ctB, rk))
	rot := ev.Rotate(ctA, 1, gk)

	hash := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		d := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(d[:])
	}
	hashCt := func(ct *Ciphertext) string {
		return hash(func(b *bytes.Buffer) error { return ct.Write(b) })
	}

	return map[string]string{
		"secret_key": hash(func(b *bytes.Buffer) error { return WriteSecretKeyV2(b, p, sk) }),
		"public_key": hash(func(b *bytes.Buffer) error { return WritePublicKeyV2(b, p, pk) }),
		"relin_key":  hash(func(b *bytes.Buffer) error { return WriteRelinKeyV2(b, p, rk) }),
		"galois_key": hash(func(b *bytes.Buffer) error { return WriteGaloisKeyV2(b, p, gk) }),
		"pt_a":       hash(func(b *bytes.Buffer) error { return writePolyRows(b, ptA.Value) }),
		"ct_a":       hashCt(ctA),
		"ct_b":       hashCt(ctB),
		"ct_sum":     hashCt(sum),
		"ct_prod":    hashCt(prod),
		"ct_rot":     hashCt(rot),
	}
}

func TestKnownAnswerVectors(t *testing.T) {
	path := filepath.Join("testdata", "kat_v1.json")
	got := katDigests(t)

	if *updateKAT {
		out := katFile{
			Comment: "Golden CKKS pipeline digests (TestConfig). Regenerate with -update-kat; see kat_test.go.",
			KeySeed: katKeySeed,
			EncSeed: katEncSeed,
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
