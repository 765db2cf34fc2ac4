package poly

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/ring"
)

// TestWordKernelsAnyLength: the eight-word main loops and their tails agree
// with the obvious word-at-a-time code for every row length, and the range
// check names the first bad word wherever it sits.
func TestWordKernelsAnyLength(t *testing.T) {
	const q = 1<<30 - 35
	mod := ring.Modulus{Q: q}
	for n := 0; n <= 27; n++ {
		p := Poly{Mod: mod, Coeffs: make([]uint64, n)}
		for i := range p.Coeffs {
			p.Coeffs[i] = uint64(i*7919+1) % q
		}
		want := make([]byte, n*4)
		for i, v := range p.Coeffs {
			binary.LittleEndian.PutUint32(want[i*4:], uint32(v))
		}
		got := make([]byte, n*4)
		p.PackWords(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: PackWords differs from word-at-a-time encoding", n)
		}
		back := Poly{Mod: mod, Coeffs: make([]uint64, n)}
		if _, ok := back.UnpackWords(want); !ok || !slices.Equal(back.Coeffs, p.Coeffs) {
			t.Fatalf("n=%d: UnpackWords = %v (ok %v), want %v", n, back.Coeffs, ok, p.Coeffs)
		}
		if _, ok := WordsInRange(want, q); !ok {
			t.Fatalf("n=%d: WordsInRange refused an in-range row", n)
		}
		for at := 0; at < n; at++ {
			row := bytes.Clone(want)
			binary.LittleEndian.PutUint32(row[at*4:], q+uint32(at))
			if bad, ok := WordsInRange(row, q); ok || bad != q+uint64(at) {
				t.Fatalf("n=%d: WordsInRange(word %d = q+%d) = (%d, %v)", n, at, at, bad, ok)
			}
			if bad, ok := back.UnpackWords(row); ok || bad != q+uint64(at) {
				t.Fatalf("n=%d: UnpackWords(word %d = q+%d) = (%d, %v)", n, at, at, bad, ok)
			}
		}
	}
}
