package fv

import (
	"bytes"
	"testing"

	"repro/internal/sampler"
)

// Fuzz targets: the deserializers face untrusted bytes (the cloud protocol
// feeds them straight off the network), so they must never panic and must
// only ever return valid objects or errors. `go test` runs the seed corpus;
// `go test -fuzz FuzzReadCiphertext ./internal/fv` explores further.

func FuzzReadCiphertext(f *testing.F) {
	p, err := NewParams(TestConfig(257))
	if err != nil {
		f.Fatal(err)
	}
	// Seed: a valid ciphertext, a truncation, and garbage.
	ct := NewCiphertext(p, 2)
	var buf bytes.Buffer
	if err := ct.WriteTo(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 1, 0, 0, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCiphertext(bytes.NewReader(data), p)
		if err != nil {
			return
		}
		// Anything accepted must be structurally valid: reduced residues of
		// the right shape, re-serializable.
		if len(got.Els) < 1 || len(got.Els) > 3 {
			t.Fatalf("accepted ciphertext with %d elements", len(got.Els))
		}
		for _, el := range got.Els {
			if el.Level() != p.QBasis.K() || el.N() != p.N() {
				t.Fatal("accepted ciphertext with wrong shape")
			}
			for i, row := range el.Rows {
				for _, c := range row.Coeffs {
					if c >= p.QMods[i].Q {
						t.Fatal("accepted unreduced residue")
					}
				}
			}
		}
		var out bytes.Buffer
		if err := got.WriteTo(&out, p); err != nil {
			t.Fatalf("accepted ciphertext failed to re-serialize: %v", err)
		}
	})
}

func FuzzReadKeyHeader(f *testing.F) {
	p, err := NewParams(TestConfig(257))
	if err != nil {
		f.Fatal(err)
	}
	sk, _, _ := NewKeyGenerator(p, sampler.NewPRNG(1)).GenKeys()
	var buf bytes.Buffer
	if err := WriteSecretKeyV2(&buf, p, sk); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("FVk2\x04\x00\x00\x00null"))
	f.Add([]byte("nope"))
	// The retired unchecksummed container: must be refused at the magic.
	v1 := bytes.Clone(buf.Bytes()[:buf.Len()-8])
	v1[3] = '1'
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are fine. Files that parse must carry a
		// self-consistent configuration, and only the current magic parses.
		params, _, err := ReadSecretKey(bytes.NewReader(data))
		if err != nil {
			return
		}
		if params.N() < 4 || params.Cfg.T < 2 {
			t.Fatal("accepted invalid configuration")
		}
		if !bytes.HasPrefix(data, []byte("FVk2")) {
			t.Fatalf("accepted a key file with magic %q", data[:4])
		}
	})
}

// FuzzDecodeFVKeys holds the evaluation-key readers to "usable", not just
// well-shaped: whatever they accept goes, on a serving node, straight into an
// evaluator's or the co-processor's digit loop. An accepted relin key must
// relinearize a degree-2 ciphertext without panicking; an accepted Galois key
// must carry one component per q prime and an odd in-range element and rotate
// a ciphertext without panicking. Seeded with honest keys of both gadgets and
// the forged containers of TestKeyReadersRefuseUnusableKeys.
func FuzzDecodeFVKeys(f *testing.F) {
	p, err := NewParams(TestConfig(257))
	if err != nil {
		f.Fatal(err)
	}
	kg := NewKeyGenerator(p, sampler.NewPRNG(1))
	sk, _, rk := kg.GenKeys()
	seed := func(write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(b *bytes.Buffer) error { return WriteRelinKeyV2(b, p, rk) })
	seed(func(b *bytes.Buffer) error {
		return WriteRelinKeyV2(b, p, kg.GenRelinKey(sk, Traditional, p.Cfg.RelinLogW, p.Cfg.RelinDepth))
	})
	seed(func(b *bytes.Buffer) error { return WriteGaloisKeyV2(b, p, kg.GenGaloisKey(sk, 3)) })
	for _, file := range forgedKeyFiles(f, p) {
		f.Add(file)
	}
	f.Add([]byte("FVk2\x04\x00\x00\x00null"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if p2, rk2, err := ReadRelinKey(bytes.NewReader(data)); err == nil {
			if len(rk2.Rlk0Hat) != rk2.Ell || len(rk2.Rlk1Hat) != rk2.Ell {
				t.Fatalf("accepted relin key with ℓ = %d and %d+%d components", rk2.Ell, len(rk2.Rlk0Hat), len(rk2.Rlk1Hat))
			}
			// c̃2 = (q-1)/2 in every coefficient — residue (q_i-1)/2 on row i —
			// is the widest value a positional decomposition has to slice.
			ct := NewCiphertext(p2, 3)
			for i, m := range p2.QMods {
				for c := range ct.Els[2].Rows[i].Coeffs {
					ct.Els[2].Rows[i].Coeffs[c] = (m.Q - 1) / 2
				}
			}
			NewEvaluator(p2).Relinearize(ct, rk2)
		}
		if p2, gk2, err := ReadGaloisKey(bytes.NewReader(data)); err == nil {
			if gk2.G%2 != 1 || gk2.G < 1 || gk2.G >= 2*p2.N() {
				t.Fatalf("accepted Galois key with element %d", gk2.G)
			}
			if len(gk2.Ks0Hat) != p2.Cfg.QCount || len(gk2.Ks1Hat) != p2.Cfg.QCount {
				t.Fatalf("accepted Galois key with %d components, q has %d primes", len(gk2.Ks0Hat), p2.Cfg.QCount)
			}
			NewEvaluator(p2).ApplyGalois(NewCiphertext(p2, 2), gk2)
		}
	})
}

func FuzzIntegerEncoderDecode(f *testing.F) {
	p, err := NewParams(TestConfig(65537))
	if err != nil {
		f.Fatal(err)
	}
	e := NewIntegerEncoder(p)
	f.Add(int64(0))
	f.Add(int64(-1))
	f.Add(int64(1234567))
	f.Fuzz(func(t *testing.T, v int64) {
		pt := func() *Plaintext {
			defer func() { recover() }() // values wider than n bits panic by contract
			return e.Encode(v)
		}()
		if pt == nil {
			return
		}
		got, err := e.Decode(pt)
		if err != nil {
			t.Fatalf("decode of freshly encoded %d failed: %v", v, err)
		}
		if got != v {
			t.Fatalf("encode/decode %d -> %d", v, got)
		}
	})
}
