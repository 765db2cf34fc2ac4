package ckks

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/poly"
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

// Equal reports bit-identity: same shape, same scale bits, same residues.
// This is the chaos/difftest contract — approximate arithmetic is exact as a
// computation on residues, so two runs of the same pipeline must agree to
// the last bit or something corrupted the state.
func (ct *Ciphertext) Equal(other *Ciphertext) bool {
	if other == nil || len(ct.Els) != len(other.Els) ||
		math.Float64bits(ct.Scale) != math.Float64bits(other.Scale) {
		return false
	}
	for e, el := range ct.Els {
		oel := other.Els[e]
		if len(el.Rows) != len(oel.Rows) {
			return false
		}
		for r, row := range el.Rows {
			orow := oel.Rows[r]
			if len(row.Coeffs) != len(orow.Coeffs) {
				return false
			}
			for i, v := range row.Coeffs {
				if v != orow.Coeffs[i] {
					return false
				}
			}
		}
	}
	return true
}

// ctHeaderLen is the serialized header: element count, ring degree, level
// (all uint32), one uint32 of padding, and the scale as a float64 bit
// pattern — then the residue rows as 32-bit words, low row first.
const ctHeaderLen = 24

// ByteSize returns the serialized size of a ciphertext with els elements at
// level over ring degree n.
func ByteSize(els, level, n int) int {
	return ctHeaderLen + els*(level+1)*n*4
}

// Write serializes the ciphertext.
func (ct *Ciphertext) Write(w io.Writer) error {
	var hdr [ctHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(ct.Els)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ct.Els[0].N()))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(ct.Level()))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(ct.Scale))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	n := ct.Els[0].N()
	buf := make([]byte, n*4)
	for _, el := range ct.Els {
		for _, row := range el.Rows {
			row.PackWords(buf)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCiphertext deserializes a ciphertext under params, validating shape,
// level, residue range, and scale.
func ReadCiphertext(r io.Reader, params *Params) (*Ciphertext, error) {
	var hdr [ctHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	els := int(binary.LittleEndian.Uint32(hdr[0:]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	level := int(binary.LittleEndian.Uint32(hdr[8:]))
	scale := math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:]))
	if n != params.N() {
		return nil, fmt.Errorf("ckks: ciphertext ring degree %d, params %d", n, params.N())
	}
	if els < 1 || els > 3 {
		return nil, fmt.Errorf("ckks: implausible ciphertext with %d elements", els)
	}
	if level < 0 || level > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d outside chain (L=%d)", level, params.MaxLevel())
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("ckks: implausible scale %g", scale)
	}
	ct := NewCiphertext(params, els-1, level)
	ct.Scale = scale
	buf := make([]byte, n*4)
	for _, el := range ct.Els {
		for ri := range el.Rows {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			if bad, ok := el.Rows[ri].UnpackWords(buf); !ok {
				return nil, fmt.Errorf("ckks: residue %d out of range for modulus %d", bad, params.QMods[ri].Q)
			}
		}
	}
	return ct, nil
}
