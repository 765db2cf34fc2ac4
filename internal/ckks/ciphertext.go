package ckks

import (
	"io"
	"math"

	"repro/internal/poly"
	"repro/internal/rlwe"
)

// Plaintext is an encoded slot vector: a coefficient-domain polynomial over
// the chain prefix of its level, carrying the scale it was encoded at.
type Plaintext struct {
	Value poly.RNSPoly
	Scale float64
}

// Level returns the plaintext's chain level (row count − 1).
func (pt *Plaintext) Level() int { return len(pt.Value.Rows) - 1 }

// Ciphertext is a CKKS ciphertext: degree+1 coefficient-domain polynomials
// over the chain prefix of its level, plus the scale of the carried
// message. Unlike BFV the scale is live metadata — Mul multiplies scales,
// Rescale divides by the dropped prime — so it serializes with the rows.
type Ciphertext struct {
	Els   []poly.RNSPoly
	Scale float64
}

// NewCiphertext allocates a ciphertext of the given degree (element count
// degree+1) at level.
func NewCiphertext(p *Params, degree, level int) *Ciphertext {
	ct := &Ciphertext{Scale: 1}
	for i := 0; i <= degree; i++ {
		ct.Els = append(ct.Els, poly.NewRNSPoly(p.QMods[:level+1], p.N()))
	}
	return ct
}

// Level returns the ciphertext's chain level.
func (ct *Ciphertext) Level() int { return len(ct.Els[0].Rows) - 1 }

// Degree returns the ciphertext degree (element count − 1).
func (ct *Ciphertext) Degree() int { return len(ct.Els) - 1 }

// Clone deep-copies the ciphertext.
func (ct *Ciphertext) Clone() *Ciphertext {
	out := &Ciphertext{Scale: ct.Scale}
	for _, el := range ct.Els {
		out.Els = append(out.Els, el.Clone())
	}
	return out
}

// Equal reports bit-identity: same shape, same scale bits, same row moduli,
// same residues, compared row by row on poly.Poly.Equal's vector lane. This
// is the chaos/difftest contract — approximate arithmetic is exact as a
// computation on residues, so two runs of the same pipeline must agree to
// the last bit or something corrupted the state.
func (ct *Ciphertext) Equal(other *Ciphertext) bool {
	if other == nil || len(ct.Els) != len(other.Els) ||
		math.Float64bits(ct.Scale) != math.Float64bits(other.Scale) {
		return false
	}
	for e, el := range ct.Els {
		if !el.Equal(other.Els[e]) {
			return false
		}
	}
	return true
}

// ByteSize returns the serialized size of a ciphertext with els elements at
// level over ring degree n: the 24-byte leveled header, then every live
// residue as a 32-bit word.
func ByteSize(els, level, n int) int {
	return rlwe.HeaderLen(true) + els*(level+1)*n*4
}

// Wire encoding: the leveled layout of the shared ciphertext codec (package
// rlwe) — element count, ring degree, level, one zero word of padding (all
// uint32) and the scale as a float64 bit pattern, then the residue rows as
// 32-bit words, low row first. The functions below are its typed entry
// points; every reader shares its checks: degree, 1–3 elements, a level
// inside the chain, zero padding, a finite positive scale, every residue
// below its modulus.

// Wire returns what CKKS contributes to the shared codec: the chain q_0..q_L,
// the ring degree, and a header that carries level and scale.
func (p *Params) Wire() rlwe.Layout {
	return rlwe.Layout{Scheme: "ckks", Mods: p.QMods, N: p.N(), Leveled: true}
}

// AppendTo appends the encoding of ct to dst and returns the extended slice.
// A ciphertext describes its own level and scale, so no parameter set is
// needed to encode one.
func (ct *Ciphertext) AppendTo(dst []byte) ([]byte, error) {
	return rlwe.AppendTo(dst, ct.Els, true, ct.Scale)
}

// Decode validates the encoding at the head of b — exactly as the in-place
// check a relay runs instead of decoding, params.Wire().Check, does: one pass
// over the residues, whichever runs — and stores it in
// ct, returning the encoded length. Rows ct already has in the right shape
// are reused — at whatever level it was before — and every coefficient is
// overwritten, so a recycled ciphertext keeps nothing of its previous value.
// After an error ct's contents are unspecified.
func (ct *Ciphertext) Decode(b []byte, params *Params) (n int, err error) {
	n, ct.Scale, err = params.Wire().Decode(b, &ct.Els)
	return n, err
}

// Write serializes the ciphertext as one Write of its encoding.
func (ct *Ciphertext) Write(w io.Writer) error {
	return rlwe.WriteTo(w, ct.Els, true, ct.Scale)
}

// ReadCiphertext deserializes a ciphertext under params, validating shape,
// level, residue range, and scale.
func ReadCiphertext(r io.Reader, params *Params) (ct *Ciphertext, err error) {
	ct = new(Ciphertext)
	if ct.Scale, err = params.Wire().ReadInto(r, &ct.Els); err != nil {
		return nil, err
	}
	return ct, nil
}
