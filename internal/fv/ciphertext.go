package fv

import (
	"fmt"
	"io"

	"repro/internal/poly"
	"repro/internal/rlwe"
)

// Plaintext is a polynomial with coefficients modulo the plaintext modulus
// t, of length n. Encoders produce Plaintexts; Decrypt returns them.
type Plaintext struct {
	Coeffs []uint64
}

// NewPlaintext returns an all-zero plaintext for params.
func NewPlaintext(params *Params) *Plaintext {
	return &Plaintext{Coeffs: make([]uint64, params.N())}
}

// Clone returns a deep copy.
func (p *Plaintext) Clone() *Plaintext {
	return &Plaintext{Coeffs: append([]uint64(nil), p.Coeffs...)}
}

// Equal reports coefficient-wise equality.
func (p *Plaintext) Equal(o *Plaintext) bool {
	if len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if p.Coeffs[i] != o.Coeffs[i] {
			return false
		}
	}
	return true
}

// Ciphertext is an FV ciphertext: a vector of polynomials over the q basis
// in coefficient representation. Fresh and relinearized ciphertexts have two
// elements (c0, c1); an unrelinearized product has three.
type Ciphertext struct {
	Els []poly.RNSPoly
}

// NewCiphertext returns a zero ciphertext with the given element count.
func NewCiphertext(params *Params, els int) *Ciphertext {
	ct := &Ciphertext{Els: make([]poly.RNSPoly, els)}
	for i := range ct.Els {
		ct.Els[i] = poly.NewRNSPoly(params.QMods, params.N())
	}
	return ct
}

// Degree returns the number of polynomial elements minus one (2-element
// ciphertexts have degree 1).
func (c *Ciphertext) Degree() int { return len(c.Els) - 1 }

// Clone returns a deep copy.
func (c *Ciphertext) Clone() *Ciphertext {
	out := &Ciphertext{Els: make([]poly.RNSPoly, len(c.Els))}
	for i := range c.Els {
		out.Els[i] = c.Els[i].Clone()
	}
	return out
}

// Equal reports deep equality.
func (c *Ciphertext) Equal(o *Ciphertext) bool {
	if len(c.Els) != len(o.Els) {
		return false
	}
	for i := range c.Els {
		if !c.Els[i].Equal(o.Els[i]) {
			return false
		}
	}
	return true
}

// ByteSize returns the serialized size of c under params: every residue
// coefficient as 4 bytes (the paper transfers 30-bit residues as 32-bit
// words; one 4096×6-residue polynomial is the 98,304-byte unit of Table
// III), plus an 8-byte header.
func (c *Ciphertext) ByteSize(params *Params) int {
	return rlwe.HeaderLen(false) + len(c.Els)*params.QBasis.K()*params.N()*4
}

// Wire encoding: the plain layout of the shared ciphertext codec (package
// rlwe) — element count (4 LE), ring degree (4 LE), then for every element
// each residue row as n 32-bit words. The functions below are its typed
// entry points; every reader shares its three checks: degree = params.N(),
// 1 <= elements <= 3, every residue below its modulus.

// Wire returns what BFV contributes to the shared codec: the q chain, the
// ring degree, and a header without level or scale.
func (p *Params) Wire() rlwe.Layout {
	return rlwe.Layout{Scheme: "fv", Mods: p.QMods, N: p.N()}
}

// checkShape refuses to encode a ciphertext built under other parameters.
func (c *Ciphertext) checkShape(params *Params) error {
	for _, el := range c.Els {
		if el.Level() != params.QBasis.K() || el.N() != params.N() {
			return fmt.Errorf("fv: ciphertext element level %d does not match params", el.Level())
		}
	}
	return nil
}

// AppendTo appends the encoding of c to dst and returns the extended slice.
func (c *Ciphertext) AppendTo(dst []byte, params *Params) ([]byte, error) {
	if err := c.checkShape(params); err != nil {
		return dst, err
	}
	return rlwe.AppendTo(dst, c.Els, false, 0)
}

// Decode validates the encoding at the head of b — exactly as the in-place
// check a relay runs instead of decoding, params.Wire().Check, does: one pass
// over the residues, whichever runs — and stores it in
// c, returning the encoded length. c's rows are reused
// where they have the shape params gives them and replaced otherwise, and
// every coefficient of every element is overwritten, so a recycled
// ciphertext keeps nothing of its previous value. After an error c's
// contents are unspecified.
func (c *Ciphertext) Decode(b []byte, params *Params) (int, error) {
	n, _, err := params.Wire().Decode(b, &c.Els)
	return n, err
}

// WriteTo serializes c as one Write of its encoding.
func (c *Ciphertext) WriteTo(w io.Writer, params *Params) error {
	if err := c.checkShape(params); err != nil {
		return err
	}
	return rlwe.WriteTo(w, c.Els, false, 0)
}

// ReadCiphertext deserializes a ciphertext written by WriteTo.
func ReadCiphertext(r io.Reader, params *Params) (*Ciphertext, error) {
	ct := new(Ciphertext)
	if _, err := params.Wire().ReadInto(r, &ct.Els); err != nil {
		return nil, err
	}
	return ct, nil
}
