package rlwe

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/poly"
	"repro/internal/ring"
)

// The ciphertext wire codec, shared by the scheme bindings. An encoding is a
// header followed, for every element, by each live residue row as n 32-bit
// words — one contiguous buffer, the way the paper's DMA moves a polynomial
// (Table III: one contiguous transfer beats chunked ones), over poly's row
// kernels (poly/words.go). The two header layouts are data:
//
//	plain   (BFV)   elements (4 LE) | ring degree (4 LE)
//	leveled (CKKS)  elements (4 LE) | ring degree (4 LE) | level (4 LE) |
//	                zero padding (4) | scale (float64 bits, 8 LE)
//
// A plain ciphertext always carries the whole residue chain; a leveled one
// carries rows 0..level of it. Every reader — Check, Decode, ReadInto — goes
// through the same header parser and the same row walk (scan), so a node, a
// forwarding tier and a CLI accept exactly the same byte strings, and an
// accepted string is the only encoding of its value.

const (
	plainHeaderLen   = 8
	leveledHeaderLen = 24
)

// HeaderLen returns the length of the header layout.
func HeaderLen(leveled bool) int {
	if leveled {
		return leveledHeaderLen
	}
	return plainHeaderLen
}

// Layout is everything a scheme contributes to decoding its ciphertexts: its
// name (the prefix of the errors), the residue chain, the ring degree, and
// whether the header carries a level and a scale.
type Layout struct {
	Scheme  string
	Mods    []ring.Modulus
	N       int
	Leveled bool
}

// header is the one header parser: it checks the header at the head of b
// against the layout and returns the element count, the number of residue
// rows per element and the scale (0 for a plain layout).
func (l Layout) header(b []byte) (els, rows int, scale float64, err error) {
	if len(b) < HeaderLen(l.Leveled) {
		return 0, 0, 0, io.ErrUnexpectedEOF
	}
	els = int(binary.LittleEndian.Uint32(b))
	if n := int(binary.LittleEndian.Uint32(b[4:])); n != l.N {
		return 0, 0, 0, fmt.Errorf("%s: ciphertext degree %d does not match params degree %d", l.Scheme, n, l.N)
	}
	if els < 1 || els > 3 {
		return 0, 0, 0, fmt.Errorf("%s: implausible ciphertext element count %d", l.Scheme, els)
	}
	if !l.Leveled {
		return els, len(l.Mods), 0, nil
	}
	level := binary.LittleEndian.Uint32(b[8:])
	if int64(level) >= int64(len(l.Mods)) {
		return 0, 0, 0, fmt.Errorf("%s: level %d outside chain (L=%d)", l.Scheme, level, len(l.Mods)-1)
	}
	// The padding is part of the encoding: were it ignored, two byte strings
	// would decode to one ciphertext and a forwarded frame would not be the
	// encoding of what it decodes to.
	if pad := binary.LittleEndian.Uint32(b[12:]); pad != 0 {
		return 0, 0, 0, fmt.Errorf("%s: non-zero header padding %#x", l.Scheme, pad)
	}
	scale = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	if !(scale > 0) || math.IsInf(scale, 0) {
		return 0, 0, 0, fmt.Errorf("%s: implausible scale %g", l.Scheme, scale)
	}
	return els, int(level) + 1, scale, nil
}

// Len returns the length of the encoding that opens with the header hdr,
// after checking the header against the layout.
func (l Layout) Len(hdr []byte) (int, error) {
	els, rows, _, err := l.header(hdr)
	if err != nil {
		return 0, err
	}
	return HeaderLen(l.Leveled) + els*rows*l.N*4, nil
}

// Check validates the encoding at the head of b in place — what a tier that
// only forwards the bytes runs instead of Decode — and returns its length. A
// buffer shorter than the header announces is io.ErrUnexpectedEOF.
func (l Layout) Check(b []byte) (int, error) {
	size, _, err := l.scan(b, nil)
	return size, err
}

// Decode validates the encoding at the head of b exactly as Check does and
// stores its elements in *into, returning the encoded length and the scale.
// Rows of *into that already have the shape the encoding needs are reused and
// the rest replaced, and every coefficient of every element is overwritten,
// so a recycled value keeps nothing of what it held — at whatever level it
// held it. The caller owns *into up to the capacity of its slices. After an
// error its contents are unspecified.
func (l Layout) Decode(b []byte, into *[]poly.RNSPoly) (int, float64, error) {
	return l.scan(b, into)
}

// scan is the one validator and the one row walk: it checks the encoding at
// the head of b and, when into is non-nil, stores the coefficients there in
// the same pass.
func (l Layout) scan(b []byte, into *[]poly.RNSPoly) (int, float64, error) {
	els, rows, scale, err := l.header(b)
	if err != nil {
		return 0, 0, err
	}
	hl, rowLen := HeaderLen(l.Leveled), l.N*4
	size := hl + els*rows*rowLen
	if len(b) < size {
		return 0, 0, io.ErrUnexpectedEOF
	}
	if into != nil {
		Reshape(into, els, l.Mods[:rows], l.N)
	}
	src := b[hl:size]
	for e := 0; e < els; e++ {
		for ri, m := range l.Mods[:rows] {
			var (
				bad uint64
				ok  bool
			)
			if into == nil {
				bad, ok = poly.WordsInRange(src[:rowLen], m.Q)
			} else {
				bad, ok = (*into)[e].Rows[ri].UnpackWords(src[:rowLen])
			}
			if !ok {
				return 0, 0, fmt.Errorf("%s: residue %d out of range for modulus %d", l.Scheme, bad, m.Q)
			}
			src = src[rowLen:]
		}
	}
	return size, scale, nil
}

// Reshape gives *els exactly count elements of n coefficients over mods,
// keeping every row that already has that shape — including rows a previous,
// higher-level value left within the slices' capacity. It is the one shaping
// rule for recycled ciphertexts, decoded operands and read-back results
// alike: a recycled value's rows are only ever shortened, re-extended within
// capacity, or replaced, so *els may share no row storage with a value still
// in use. Kept rows keep their coefficients; the caller overwrites every one.
func Reshape(els *[]poly.RNSPoly, count int, mods []ring.Modulus, n int) {
	*els = resized(*els, count)
	for e := range *els {
		el := &(*els)[e]
		el.Rows = resized(el.Rows, len(mods))
		for ri := range el.Rows {
			if row := &el.Rows[ri]; row.Mod.Q != mods[ri].Q || len(row.Coeffs) != n {
				*row = poly.NewPoly(mods[ri], n)
			}
		}
	}
}

// resized returns s at length n, keeping what its capacity already holds.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// AppendTo appends the encoding of a ciphertext — its elements and, under the
// leveled header, their level and scale — to dst and returns the extended
// slice. Encoding needs nothing of the scheme but the header layout; the
// elements must agree on their shape.
func AppendTo(dst []byte, els []poly.RNSPoly, leveled bool, scale float64) ([]byte, error) {
	if len(els) == 0 || els[0].Level() == 0 {
		return dst, fmt.Errorf("rlwe: encoding a ciphertext without elements or rows")
	}
	rows, n := els[0].Level(), els[0].N()
	for _, el := range els {
		if el.Level() != rows || el.N() != n {
			return dst, fmt.Errorf("rlwe: ciphertext elements disagree on their shape")
		}
	}
	at, hl := len(dst), HeaderLen(leveled)
	size := hl + len(els)*rows*n*4
	dst = slices.Grow(dst, size)[:at+size]
	hdr := dst[at : at+hl]
	clear(hdr)
	binary.LittleEndian.PutUint32(hdr, uint32(len(els)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	if leveled {
		binary.LittleEndian.PutUint32(hdr[8:], uint32(rows-1))
		binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(scale))
	}
	out := dst[at+hl:]
	for _, el := range els {
		for _, row := range el.Rows {
			row.PackWords(out[:n*4])
			out = out[n*4:]
		}
	}
	return dst, nil
}

// WriteTo writes AppendTo's encoding as one Write.
func WriteTo(w io.Writer, els []poly.RNSPoly, leveled bool, scale float64) error {
	b, err := AppendTo(nil, els, leveled, scale)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadInto reads one encoding from a stream — the header, then the length it
// announces as one ReadFull — and decodes it into *into, returning the scale.
func (l Layout) ReadInto(r io.Reader, into *[]poly.RNSPoly) (float64, error) {
	var head [leveledHeaderLen]byte
	hdr := head[:HeaderLen(l.Leveled)]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	size, err := l.Len(hdr)
	if err != nil {
		return 0, err
	}
	b := append(make([]byte, 0, size), hdr...)[:size]
	if _, err := io.ReadFull(r, b[len(hdr):]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header announced a body
		}
		return 0, err
	}
	_, scale, err := l.Decode(b, into)
	return scale, err
}
