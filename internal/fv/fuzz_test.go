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
