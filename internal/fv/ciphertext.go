package fv

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/poly"
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
	return ctHeaderLen + len(c.Els)*params.QBasis.K()*params.N()*4
}

// Wire encoding: element count (4 LE), ring degree (4 LE), then for every
// element each residue row as n 32-bit words. The whole-ciphertext
// primitives below — AppendTo, CheckCiphertext, Decode — work on one
// contiguous buffer, the way the paper's DMA moves a polynomial (Table III:
// one contiguous transfer beats chunked ones), on poly's row kernels
// (poly/words.go); WriteTo and ReadCiphertext are those primitives plus one
// Write or ReadFull. Every decoder shares the three checks of scan: degree =
// params.N(), 1 <= elements <= 3, every residue below its modulus.
const ctHeaderLen = 8

// CiphertextLen returns the length of the encoding that opens with the
// header hdr (at least 8 bytes), after checking the header's degree and
// element count against params.
func CiphertextLen(hdr []byte, params *Params) (int, error) {
	if len(hdr) < ctHeaderLen {
		return 0, io.ErrUnexpectedEOF
	}
	els := int(binary.LittleEndian.Uint32(hdr[:4]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n != params.N() {
		return 0, fmt.Errorf("fv: ciphertext degree %d does not match params degree %d", n, params.N())
	}
	if els < 1 || els > 3 {
		return 0, fmt.Errorf("fv: implausible ciphertext element count %d", els)
	}
	return ctHeaderLen + els*params.QBasis.K()*n*4, nil
}

// AppendTo appends the encoding of c to dst and returns the extended slice.
func (c *Ciphertext) AppendTo(dst []byte, params *Params) ([]byte, error) {
	n := params.N()
	for _, el := range c.Els {
		if el.Level() != params.QBasis.K() || el.N() != n {
			return dst, fmt.Errorf("fv: ciphertext element level %d does not match params", el.Level())
		}
	}
	at := len(dst)
	dst = slices.Grow(dst, c.ByteSize(params))[:at+c.ByteSize(params)]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(c.Els)))
	binary.LittleEndian.PutUint32(dst[at+4:], uint32(n))
	out := dst[at+ctHeaderLen:]
	for _, el := range c.Els {
		for _, row := range el.Rows {
			row.PackWords(out[:n*4])
			out = out[n*4:]
		}
	}
	return dst, nil
}

// CheckCiphertext validates the encoding at the head of b in place — what a
// tier that only forwards the bytes runs instead of Decode — and returns its
// length. A buffer shorter than the header announces is io.ErrUnexpectedEOF.
func CheckCiphertext(b []byte, params *Params) (int, error) {
	return scan(b, params, nil)
}

// Decode validates the encoding at the head of b exactly as CheckCiphertext
// does and stores it in c, returning the encoded length. c's rows are reused
// when they have the shape params gives them and replaced otherwise, and
// every coefficient of every element is overwritten, so a recycled
// ciphertext keeps nothing of its previous value. After an error c's
// contents are unspecified.
func (c *Ciphertext) Decode(b []byte, params *Params) (int, error) {
	return scan(b, params, c)
}

// scan is the one validator: it checks the encoding at the head of b and,
// when into is non-nil, stores the coefficients there in the same pass.
func scan(b []byte, params *Params, into *Ciphertext) (int, error) {
	size, err := CiphertextLen(b, params)
	if err != nil {
		return 0, err
	}
	if len(b) < size {
		return 0, io.ErrUnexpectedEOF
	}
	n, k := params.N(), params.QBasis.K()
	els := (size - ctHeaderLen) / (k * n * 4)
	if into != nil {
		into.reshape(params, els)
	}
	src := b[ctHeaderLen:size]
	for e := 0; e < els; e++ {
		for ri, m := range params.QMods {
			row := src[:n*4]
			src = src[n*4:]
			var (
				bad uint64
				ok  bool
			)
			if into == nil {
				bad, ok = poly.WordsInRange(row, m.Q)
			} else {
				bad, ok = into.Els[e].Rows[ri].UnpackWords(row)
			}
			if !ok {
				return 0, fmt.Errorf("fv: residue %d out of range for modulus %d", bad, m.Q)
			}
		}
	}
	return size, nil
}

// reshape gives c exactly els elements of params' shape, keeping every row
// that already has it.
func (c *Ciphertext) reshape(params *Params, els int) {
	if cap(c.Els) < els {
		c.Els = append(c.Els[:cap(c.Els)], make([]poly.RNSPoly, els-cap(c.Els))...)
	}
	c.Els = c.Els[:els]
	for e := range c.Els {
		el := &c.Els[e]
		fits := el.Level() == len(params.QMods)
		for ri := 0; fits && ri < len(el.Rows); ri++ {
			fits = el.Rows[ri].Mod.Q == params.QMods[ri].Q && len(el.Rows[ri].Coeffs) == params.N()
		}
		if !fits {
			*el = poly.NewRNSPoly(params.QMods, params.N())
		}
	}
}

// wireScratch recycles the one contiguous buffer WriteTo and ReadCiphertext
// stage a ciphertext in.
var wireScratch = sync.Pool{New: func() any { return new([]byte) }}

// WriteTo serializes c as one Write of its encoding.
func (c *Ciphertext) WriteTo(w io.Writer, params *Params) error {
	bp := wireScratch.Get().(*[]byte)
	defer wireScratch.Put(bp)
	b, err := c.AppendTo((*bp)[:0], params)
	if err != nil {
		return err
	}
	*bp = b
	_, err = w.Write(b)
	return err
}

// ReadCiphertext deserializes a ciphertext written by WriteTo.
func ReadCiphertext(r io.Reader, params *Params) (*Ciphertext, error) {
	var hdr [ctHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size, err := CiphertextLen(hdr[:], params)
	if err != nil {
		return nil, err
	}
	bp := wireScratch.Get().(*[]byte)
	defer wireScratch.Put(bp)
	*bp = append(slices.Grow((*bp)[:0], size), hdr[:]...)[:size]
	if _, err := io.ReadFull(r, (*bp)[ctHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header announced a body
		}
		return nil, err
	}
	ct := new(Ciphertext)
	if _, err := ct.Decode(*bp, params); err != nil {
		return nil, err
	}
	return ct, nil
}
