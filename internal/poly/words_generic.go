//go:build !amd64 || purego

package poly

// No SIMD in this build: the vector unit takes no words of any row, so the
// loops of words.go and Poly.Equal are the whole of each kernel.
func packSIMD([]byte, []uint64) int                       { return 0 }
func unpackSIMD([]uint64, []byte) (n int, largest uint64) { return 0, 0 }
func maxWordSIMD([]byte) (n int, largest uint64)          { return 0, 0 }
func equalSIMD(a, b []uint64) (n int, same bool)          { return 0, true }
