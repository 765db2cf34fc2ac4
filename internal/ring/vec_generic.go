//go:build !amd64 || purego

package ring

// No SIMD in this build: the vector unit takes zero lanes of every row, so
// the generic loops in vec.go are the whole of each kernel.
func (Modulus) simd(vecOp, []uint64, ...[]uint64) int { return 0 }
