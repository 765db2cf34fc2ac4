//go:build amd64 && !purego

package poly

import (
	"testing"

	"repro/internal/ring"
)

// TestWordsDispatchRule pins how much of a row the vector unit takes: with
// AVX2, every whole eight-word iteration the shorter operand holds, and none
// of a shorter row — so the length sweeps of words_test.go are known to
// compare both paths, tail included.
func TestWordsDispatchRule(t *testing.T) {
	if !ring.HasAVX2() {
		t.Skip("no AVX2 on this CPU: every row takes the scalar path")
	}
	for n := 0; n <= 67; n++ {
		want := n &^ 7
		coeffs, words := make([]uint64, n+3), make([]byte, 4*n)
		if got := packSIMD(words, coeffs); got != want {
			t.Errorf("n=%d: packSIMD took %d coefficients, want %d", n, got, want)
		}
		if got, _ := unpackSIMD(coeffs, words); got != want {
			t.Errorf("n=%d: unpackSIMD took %d words, want %d", n, got, want)
		}
		if got, _ := maxWordSIMD(words); got != want {
			t.Errorf("n=%d: maxWordSIMD took %d words, want %d", n, got, want)
		}
		if got, _ := equalSIMD(coeffs[:n], coeffs[3:]); got != want {
			t.Errorf("n=%d: equalSIMD took %d coefficients, want %d", n, got, want)
		}
	}
}
