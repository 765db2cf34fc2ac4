//go:build !amd64 || purego

package cloud

import "hash/crc32"

// No vector lane in this build: hash/crc32 is the whole checksum.
func crc32c(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }
