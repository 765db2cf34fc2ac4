package poly

import "encoding/binary"

// The wire form of a residue row: its n coefficients as 32-bit little-endian
// words (the paper moves 30-bit residues as 32-bit words; Table III). Both
// schemes' ciphertext codecs are these three kernels around a header. The
// main loops move eight words as four 64-bit loads or stores (the tails take
// what a ring degree not divisible by eight leaves), and range-check without
// a branch per word: v < q for every word iff no q-1-v wraps around, so the
// differences are OR-ed together and bit 63 of the result is tested once per
// row.
//
// Each kernel first hands the vector unit (words_amd64.go) the longest prefix
// of the row that it takes, and the loops below finish the row: they are the
// whole kernel without one, and the reference it is held to. The unpack and
// check kernels return the prefix's largest word, which joins the OR as one
// more difference: for every q ≤ 2^63, q-1-v wraps exactly when v ≥ q, so the
// largest word's difference wraps exactly when some word's does and the
// verdict is the scalar one.

// PackWords writes p's coefficients into dst, which must hold 4 bytes each.
func (p Poly) PackWords(dst []byte) {
	coeffs := p.Coeffs
	done := packSIMD(dst, coeffs)
	coeffs, dst = coeffs[done:], dst[4*done:]
	for len(coeffs) >= 8 && len(dst) >= 32 {
		binary.LittleEndian.PutUint64(dst, coeffs[0]&0xFFFFFFFF|coeffs[1]<<32)
		binary.LittleEndian.PutUint64(dst[8:], coeffs[2]&0xFFFFFFFF|coeffs[3]<<32)
		binary.LittleEndian.PutUint64(dst[16:], coeffs[4]&0xFFFFFFFF|coeffs[5]<<32)
		binary.LittleEndian.PutUint64(dst[24:], coeffs[6]&0xFFFFFFFF|coeffs[7]<<32)
		coeffs, dst = coeffs[8:], dst[32:]
	}
	for i, v := range coeffs {
		binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
	}
}

// WordsInRange reports whether every word of src is below q; if not, bad is
// the first one that is not.
func WordsInRange(src []byte, q uint64) (bad uint64, ok bool) {
	var over uint64
	q1, row := q-1, src
	if done, largest := maxWordSIMD(row); done > 0 {
		over, row = q1-largest, row[4*done:]
	}
	for len(row) >= 32 {
		x0 := binary.LittleEndian.Uint64(row)
		x1 := binary.LittleEndian.Uint64(row[8:])
		x2 := binary.LittleEndian.Uint64(row[16:])
		x3 := binary.LittleEndian.Uint64(row[24:])
		over |= (q1 - x0&0xFFFFFFFF) | (q1 - x0>>32) | (q1 - x1&0xFFFFFFFF) | (q1 - x1>>32) |
			(q1 - x2&0xFFFFFFFF) | (q1 - x2>>32) | (q1 - x3&0xFFFFFFFF) | (q1 - x3>>32)
		row = row[32:]
	}
	for len(row) >= 4 {
		over |= q1 - uint64(binary.LittleEndian.Uint32(row))
		row = row[4:]
	}
	return firstOver(src, q, over)
}

// UnpackWords stores the words of src (4 bytes per coefficient of p) in p and
// checks them against p's modulus in the same pass, as WordsInRange does.
// The words are stored either way; a refused row leaves p unusable.
func (p Poly) UnpackWords(src []byte) (bad uint64, ok bool) {
	var over uint64
	q1, coeffs, row := p.Mod.Q-1, p.Coeffs, src
	if done, largest := unpackSIMD(coeffs, row); done > 0 {
		over, coeffs, row = q1-largest, coeffs[done:], row[4*done:]
	}
	for len(coeffs) >= 8 && len(row) >= 32 {
		x0 := binary.LittleEndian.Uint64(row)
		x1 := binary.LittleEndian.Uint64(row[8:])
		x2 := binary.LittleEndian.Uint64(row[16:])
		x3 := binary.LittleEndian.Uint64(row[24:])
		coeffs[0], coeffs[1] = x0&0xFFFFFFFF, x0>>32
		coeffs[2], coeffs[3] = x1&0xFFFFFFFF, x1>>32
		coeffs[4], coeffs[5] = x2&0xFFFFFFFF, x2>>32
		coeffs[6], coeffs[7] = x3&0xFFFFFFFF, x3>>32
		over |= (q1 - x0&0xFFFFFFFF) | (q1 - x0>>32) | (q1 - x1&0xFFFFFFFF) | (q1 - x1>>32) |
			(q1 - x2&0xFFFFFFFF) | (q1 - x2>>32) | (q1 - x3&0xFFFFFFFF) | (q1 - x3>>32)
		coeffs, row = coeffs[8:], row[32:]
	}
	for i := range coeffs {
		coeffs[i] = uint64(binary.LittleEndian.Uint32(row[i*4:]))
		over |= q1 - coeffs[i]
	}
	return firstOver(src[:4*len(p.Coeffs)], p.Mod.Q, over)
}

// firstOver turns a row's accumulated check into the verdict, finding the
// offending word only when there is one.
func firstOver(src []byte, q, over uint64) (bad uint64, ok bool) {
	if over>>63 == 0 {
		return 0, true
	}
	for ; len(src) >= 4; src = src[4:] {
		if v := uint64(binary.LittleEndian.Uint32(src)); v >= q {
			return v, false
		}
	}
	return 0, false // unreachable: over is set only by a word >= q
}
