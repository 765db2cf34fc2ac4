//go:build amd64 && !purego

package cloud

import (
	"hash/crc32"

	"repro/internal/ring"
)

// The mux checksum's vector lane (crc_amd64.s): CRC-32C by carry-less
// multiplication, four 256-bit accumulators folded 128 bytes at a time. It
// takes the longest prefix of at least clmulMin bytes that is a whole number
// of 16-byte blocks; hash/crc32 finishes the tail, and is the whole checksum
// on a CPU without VPCLMULQDQ and for shorter inputs.

//go:noescape
func castagnoliCLMUL(crc uint32, p []byte) uint32

// clmulMin is the shortest input the lane can take: the four accumulators'
// first load.
const clmulMin = 128

var hasCLMUL = ring.HasVPCLMULQDQ()

func crc32c(crc uint32, p []byte) uint32 {
	if !hasCLMUL || len(p) < clmulMin {
		return crc32.Update(crc, castagnoli, p)
	}
	n := len(p) &^ 15
	crc = ^castagnoliCLMUL(^crc, p[:n])
	return crc32.Update(crc, castagnoli, p[n:])
}
