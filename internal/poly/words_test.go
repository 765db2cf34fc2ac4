package poly

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/ring"
)

// The word-at-a-time code the wire kernels and Equal are held to.

func packRef(coeffs []uint64) []byte {
	out := make([]byte, 4*len(coeffs))
	for i, v := range coeffs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// unpackRef returns src's words and the first of them that is not below q.
func unpackRef(src []byte, q uint64) (words []uint64, bad uint64, ok bool) {
	ok = true
	for i := 0; i+4 <= len(src); i += 4 {
		v := uint64(binary.LittleEndian.Uint32(src[i:]))
		words = append(words, v)
		if ok && v >= q {
			bad, ok = v, false
		}
	}
	return words, bad, ok
}

func equalRef(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wordModuli: 30, 31 and 32 bits, and one above 2^32, for which no word is
// out of range.
var wordModuli = []uint64{1<<30 - 35, 1<<31 - 1, 1<<32 - 5, 1<<40 + 15}

// checkWords runs the three wire kernels over coeffs under q and compares
// every byte, coefficient, verdict and reported bad word with the reference.
func checkWords(t *testing.T, what string, q uint64, coeffs []uint64) {
	t.Helper()
	p := Poly{Mod: ring.Modulus{Q: q}, Coeffs: coeffs}
	want := packRef(coeffs)
	got := make([]byte, len(want))
	p.PackWords(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s q=%d n=%d: PackWords differs from word-at-a-time encoding", what, q, len(coeffs))
	}
	words, wantBad, wantOK := unpackRef(want, q)
	if bad, ok := WordsInRange(want, q); ok != wantOK || bad != wantBad {
		t.Fatalf("%s q=%d n=%d: WordsInRange = (%d, %v), want (%d, %v)", what, q, len(coeffs), bad, ok, wantBad, wantOK)
	}
	back := Poly{Mod: p.Mod, Coeffs: make([]uint64, len(coeffs))}
	if bad, ok := back.UnpackWords(want); ok != wantOK || bad != wantBad {
		t.Fatalf("%s q=%d n=%d: UnpackWords = (%d, %v), want (%d, %v)", what, q, len(coeffs), bad, ok, wantBad, wantOK)
	}
	if !slices.Equal(back.Coeffs, words) {
		t.Fatalf("%s q=%d n=%d: UnpackWords stored %v, want %v", what, q, len(coeffs), back.Coeffs, words)
	}
}

// TestWordKernelsAnyLength: the vector prefix, the eight-word main loops and
// their tails agree with the word-at-a-time code for every row length up to
// 67 under every modulus width, on ordinary rows, on rows of q−1 (the
// largest word a 32-bit lane can hold when q is wider), and with one word
// q+k at every position — which the range check and the decoder must name.
func TestWordKernelsAnyLength(t *testing.T) {
	for _, q := range wordModuli {
		top := min(q, 1<<32) // one past the largest word in range
		for n := 0; n <= 67; n++ {
			row := make([]uint64, n)
			for i := range row {
				row[i] = uint64(i*7919+1) % top
			}
			checkWords(t, "mixed", q, row)
			for i := range row {
				row[i] = top - 1
			}
			checkWords(t, "all q-1", q, row)
			if q >= 1<<32 {
				continue
			}
			for at := 0; at < n; at++ {
				for i := range row {
					row[i] = uint64(i*7919+1) % q
				}
				row[at] = q + uint64(at)%(1<<32-q)
				checkWords(t, "one bad word", q, row)
			}
		}
	}
}

// TestEqualAnyLength: Equal at every length up to 67, with one differing
// coefficient at every position
// (by its lowest and by its highest bit), and the modulus and length checks
// before any coefficient is read.
func TestEqualAnyLength(t *testing.T) {
	mod := ring.Modulus{Q: 1<<30 - 35}
	for n := 0; n <= 67; n++ {
		a := Poly{Mod: mod, Coeffs: make([]uint64, n)}
		for i := range a.Coeffs {
			a.Coeffs[i] = uint64(i*7919+1) % mod.Q
		}
		b := Poly{Mod: mod, Coeffs: slices.Clone(a.Coeffs)}
		if !a.Equal(b) {
			t.Fatalf("n=%d: Equal refused a copy", n)
		}
		if a.Equal(Poly{Mod: ring.Modulus{Q: mod.Q + 2}, Coeffs: b.Coeffs}) {
			t.Fatalf("n=%d: Equal accepted another modulus", n)
		}
		if a.Equal(Poly{Mod: mod, Coeffs: append(slices.Clone(b.Coeffs), 0)}) {
			t.Fatalf("n=%d: Equal accepted another length", n)
		}
		for at := 0; at < n; at++ {
			for _, flip := range []uint64{1, 1 << 63} {
				b.Coeffs[at] ^= flip
				if a.Equal(b) {
					t.Fatalf("n=%d: Equal accepted coefficient %d ^ %#x", n, at, flip)
				}
				b.Coeffs[at] ^= flip
			}
		}
	}
}
