//go:build amd64 && !purego

package rns

import "repro/internal/ring"

// The AVX2 rendition of the fraction lanes (fixed_amd64.s). Each entry point
// hands the vector unit the longest prefix of the stripe that is a whole
// number of four-lane groups and returns its length; the loops of fixed.go
// finish the stripe, and are the whole kernel when the prefix is empty or
// the CPU has no AVX2.

//go:noescape
func fracAddMul2AVX2(s *float64, x1, x2 *uint64, f1, f2 float64, n int)

//go:noescape
func fracRoundAVX2(v *uint64, s *float64, eps float64, n int) (flagged bool)

// fracAddMul2SIMD accumulates float64(x1[c])·f1, then float64(x2[c])·f2,
// into s[c] over a prefix of the rows.
func fracAddMul2SIMD(s []float64, x1, x2 []uint64, f1, f2 float64) int {
	n := len(s) &^ 3
	if !ring.HasAVX2() || n == 0 {
		return 0
	}
	fracAddMul2AVX2(&s[0], &x1[0], &x2[0], f1, f2, n)
	return n
}

// fracRoundSIMD rounds a prefix of s into v, flagging the near-tie lanes.
func fracRoundSIMD(v []uint64, s []float64, eps float64) (n int, flagged bool) {
	n = len(v) &^ 3
	if !ring.HasAVX2() || n == 0 {
		return 0, false
	}
	return n, fracRoundAVX2(&v[0], &s[0], eps, n)
}
