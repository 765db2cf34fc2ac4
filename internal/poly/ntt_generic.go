//go:build !amd64 || purego

package poly

// No SIMD in this build: both transforms run the scalar levels in ntt.go.
func (t *NTTTable) forwardSIMD(dst, src []uint64) bool { return false }
func (t *NTTTable) inverseSIMD(a []uint64) bool        { return false }
