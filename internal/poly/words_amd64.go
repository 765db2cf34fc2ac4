//go:build amd64 && !purego

package poly

import "repro/internal/ring"

// The AVX2 rendition of the wire row kernels and of Equal (words_amd64.s).
// Each entry point below hands the vector unit the longest prefix of the row
// that is a whole number of eight-word iterations and returns its length; the
// loops of words.go and poly.go finish the row, and are the whole kernel when
// the prefix is empty. The dispatch rule is the CPU (ring.HasAVX2) and one
// iteration's worth of words — no modulus bound: the unpack and check kernels
// return the prefix's largest word, and words.go compares it with q.

//go:noescape
func packWordsAVX2(dst *byte, src *uint64, n int)

//go:noescape
func unpackWordsAVX2(dst *uint64, src *byte, n int) (largest uint32)

//go:noescape
func maxWordAVX2(src *byte, n int) (largest uint32)

//go:noescape
func equalAVX2(a, b *uint64, n int) bool

// packSIMD writes the low words of a prefix of coeffs into dst.
func packSIMD(dst []byte, coeffs []uint64) int {
	n := min(len(coeffs), len(dst)/4) &^ 7
	if !ring.HasAVX2() || n == 0 {
		return 0
	}
	packWordsAVX2(&dst[0], &coeffs[0], n)
	return n
}

// unpackSIMD stores a prefix of src's words in coeffs and returns the largest.
func unpackSIMD(coeffs []uint64, src []byte) (n int, largest uint64) {
	n = min(len(coeffs), len(src)/4) &^ 7
	if !ring.HasAVX2() || n == 0 {
		return 0, 0
	}
	return n, uint64(unpackWordsAVX2(&coeffs[0], &src[0], n))
}

// maxWordSIMD returns the largest word of a prefix of src.
func maxWordSIMD(src []byte) (n int, largest uint64) {
	n = len(src) / 4 &^ 7
	if !ring.HasAVX2() || n == 0 {
		return 0, 0
	}
	return n, uint64(maxWordAVX2(&src[0], n))
}

// equalSIMD compares a prefix of two rows of equal length.
func equalSIMD(a, b []uint64) (n int, same bool) {
	n = len(a) &^ 7
	if !ring.HasAVX2() || n == 0 {
		return 0, true
	}
	return n, equalAVX2(&a[0], &b[0], n)
}
