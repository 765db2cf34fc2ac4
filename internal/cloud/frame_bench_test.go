package cloud

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/fv"
)

// uniformCiphertext is a paper-set-shaped BFV ciphertext of two elements
// whose residues are uniform below their moduli: what the wire carries, with
// no key material needed to make it.
func uniformCiphertext(params *fv.Params, seed uint64) *fv.Ciphertext {
	rng := rand.New(rand.NewPCG(seed, 1))
	ct := fv.NewCiphertext(params, 2)
	for _, el := range ct.Els {
		for _, row := range el.Rows {
			for i := range row.Coeffs {
				row.Coeffs[i] = rng.Uint64N(row.Mod.Q)
			}
		}
	}
	return ct
}

// BenchmarkFrame times the three consumers of a paper-set Add on the wire,
// each the codec's one body walker driven its own way:
//
//   - node: the request framed, then materialized into pooled ciphertexts
//     (the decode is the one pass over its residues);
//   - relay: the request and the reply each framed and range-checked in
//     place (Check), as the routing tier does before it forwards them;
//   - client: the reply framed, then materialized.
//
// Released operands are not poisoned here: that is a test hook, not work of
// the path.
func BenchmarkFrame(b *testing.B) {
	defer func(p bool) { PoisonReleased = p }(PoisonReleased)
	PoisonReleased = false
	params, _ := paperSets()
	cd := codecFor(params, nil)
	var reqEnc, repEnc bytes.Buffer
	a, c := uniformCiphertext(params, 1), uniformCiphertext(params, 2)
	if err := WriteRequest(&reqEnc, params, &Request{Cmd: CmdAdd, Tenant: "alice", A: a, B: c}); err != nil {
		b.Fatal(err)
	}
	if err := writeReply(&repEnc, &Response{Result: a, ComputeNanos: 1}, params); err != nil {
		b.Fatal(err)
	}
	req, rep := reqEnc.Bytes(), repEnc.Bytes()
	var pool ctPool
	frame := func(b *testing.B) *Frame {
		f := &Frame{pool: &pool}
		if err := f.read(&cursor{buf: req, left: cd.maxRequest}, cd); err != nil {
			b.Fatal(err)
		}
		return f
	}
	reply := func(b *testing.B) *RawReply {
		raw := new(RawReply)
		if err := raw.read(&cursor{buf: rep, left: math.MaxInt}, cd, CmdAdd); err != nil {
			b.Fatal(err)
		}
		return raw
	}

	b.Run("node", func(b *testing.B) {
		b.SetBytes(int64(len(req)))
		b.ReportAllocs()
		for range b.N {
			f := frame(b)
			if _, err := f.Request(); err != nil {
				b.Fatal(err)
			}
			f.Release()
		}
	})
	b.Run("relay", func(b *testing.B) {
		b.SetBytes(int64(len(req) + len(rep)))
		b.ReportAllocs()
		for range b.N {
			if err := frame(b).Check(); err != nil {
				b.Fatal(err)
			}
			if err := reply(b).Check(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("client", func(b *testing.B) {
		b.SetBytes(int64(len(rep)))
		b.ReportAllocs()
		for range b.N {
			if _, err := reply(b).Reply(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
