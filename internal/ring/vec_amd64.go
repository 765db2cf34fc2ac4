//go:build amd64 && !purego

package ring

// The AVX2 rendition of the constant-operand Shoup lane (vec_amd64.s) under
// the four VecScalarMulShoup*Into kernels, and the CPU check both it and
// internal/poly's butterflies are selected by. What the vector lane needs of
// its operands, and how its lazy products may differ from the scalar lane's,
// is stated once, at shoupKernel in vec.go.

// hasAVX2 is fixed at package init from what the CPU and the OS report; the
// module's GOAMD64 level is v1, so nothing may assume it.
var hasAVX2 = detectAVX2()

// HasAVX2 reports whether this process runs the AVX2 kernels.
func HasAVX2() bool { return hasAVX2 }

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves and restores XMM and YMM state.
	if eax, _ := xgetbv0(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func shoupAVX2(dst, a *uint64, n int, w, w32, q uint64)

//go:noescape
func shoupLazyAVX2(dst, a *uint64, n int, w, w32, q uint64)

//go:noescape
func shoupLazyAddAVX2(dst, a *uint64, n int, w, w32, q uint64)

//go:noescape
func shoupLazyAdd2AVX2(dst, a, b *uint64, n int, wa, wa32, wb, wb32, q uint64)

// shoupSIMD runs kernel k over the longest prefix of dst whose length is a
// multiple of four and returns that length: 0 without AVX2 or below four lanes.
func shoupSIMD(k shoupKernel, q uint64, dst, a, b []uint64, wa, waShoup, wb, wbShoup uint64) int {
	n := len(dst) &^ 3
	if !hasAVX2 || n == 0 {
		return 0
	}
	switch k {
	case shoupCanonical:
		shoupAVX2(&dst[0], &a[0], n, wa, waShoup>>32, q)
	case shoupLazy:
		shoupLazyAVX2(&dst[0], &a[0], n, wa, waShoup>>32, q)
	case shoupLazyAdd:
		shoupLazyAddAVX2(&dst[0], &a[0], n, wa, waShoup>>32, q)
	case shoupLazyAdd2:
		shoupLazyAdd2AVX2(&dst[0], &a[0], &b[0], n, wa, waShoup>>32, wb, wbShoup>>32, q)
	}
	return n
}
