//go:build !amd64 || purego

package rns

// No SIMD in this build: the vector unit takes no lanes of any stripe, so
// the loops of fixed.go are the whole of each fraction kernel.
func fracAddMul2SIMD([]float64, []uint64, []uint64, float64, float64) int { return 0 }
func fracRoundSIMD([]uint64, []float64, float64) (n int, flagged bool)    { return 0, false }
