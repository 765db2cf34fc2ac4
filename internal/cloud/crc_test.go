package cloud

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestMuxChecksumMatchesStdlib holds the checksum to hash/crc32's Castagnoli
// table, its reference: at every length up to 2048 bytes from every start
// offset within a cache line, from random initial states, and at the sizes
// the wire carries — a 393 KB ciphertext frame and a 1.6 MB key blob.
func TestMuxChecksumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	buf := make([]byte, 64+2048)
	rng.Read(buf)
	for off := 0; off < 64; off++ {
		for n := 0; n <= 2048; n++ {
			p, crc := buf[off:off+n], rng.Uint32()
			if got, want := crc32c(crc, p), crc32.Update(crc, castagnoli, p); got != want {
				t.Fatalf("offset %d, length %d, state %#x: %#x, want %#x", off, n, crc, got, want)
			}
		}
	}
	for _, n := range []int{393 << 10, 1600 << 10} {
		p := make([]byte, n+3)
		rng.Read(p)
		for _, q := range [][]byte{p[:n], p[3:]} {
			crc := rng.Uint32()
			if got, want := crc32c(crc, q), crc32.Update(crc, castagnoli, q); got != want {
				t.Fatalf("%d bytes, state %#x: %#x, want %#x", len(q), crc, got, want)
			}
		}
		if got, want := muxChecksum(p), crc32.Checksum(p, castagnoli); got != want {
			t.Fatalf("muxChecksum of %d bytes: %#x, want %#x", len(p), got, want)
		}
	}
}

// FuzzMuxChecksum: any state, any bytes, any split — the checksum is
// hash/crc32's, and carrying the state across a split changes nothing.
func FuzzMuxChecksum(f *testing.F) {
	f.Add(uint32(0), make([]byte, 300), 17)
	f.Add(^uint32(0), make([]byte, 4096), 2048)
	f.Fuzz(func(t *testing.T, crc uint32, p []byte, split int) {
		want := crc32.Update(crc, castagnoli, p)
		if got := crc32c(crc, p); got != want {
			t.Fatalf("%d bytes, state %#x: %#x, want %#x", len(p), crc, got, want)
		}
		if split < 0 || split > len(p) {
			return
		}
		if got := crc32c(crc32c(crc, p[:split]), p[split:]); got != want {
			t.Fatalf("%d bytes split at %d, state %#x: %#x, want %#x", len(p), split, crc, got, want)
		}
	})
}

// BenchmarkMuxChecksum times the checksum, the lane against hash/crc32
// alone, at the shortest input the lane takes (128 bytes), at 4 KB, and at
// one ciphertext-sized frame payload (393 KB).
func BenchmarkMuxChecksum(b *testing.B) {
	for _, n := range []int{128, 4 << 10, 393 << 10} {
		p := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(p)
		for _, c := range []struct {
			name string
			sum  func([]byte) uint32
		}{
			{"lane", muxChecksum},
			{"stdlib", func(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }},
		} {
			b.Run(fmt.Sprintf("%dB/%s", n, c.name), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					c.sum(p)
				}
			})
		}
	}
}
