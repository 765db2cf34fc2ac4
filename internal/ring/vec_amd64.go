//go:build amd64 && !purego

package ring

import "math/bits"

// The AVX2 rendition of the RPAU lane (vec_amd64.s) under the row kernels of
// vec.go, and the CPU check both it and internal/poly's butterflies are
// selected by.

// hasAVX2 is fixed at package init from what the CPU and the OS report; the
// module's GOAMD64 level is v1, so nothing may assume it.
var hasAVX2 = detectAVX2()

// HasAVX2 reports whether this process runs the AVX2 kernels.
func HasAVX2() bool { return hasAVX2 }

// hasVPCLMULQDQ adds the carry-less multiply, on XMM registers
// (CPUID.1:ECX bit 1) and on YMM registers (CPUID.(7,0):ECX bit 10), to
// AVX2: what internal/cloud's frame checksum lane needs.
var hasVPCLMULQDQ = hasAVX2 && detectVPCLMULQDQ()

// HasVPCLMULQDQ reports whether this process may run AVX2 kernels that
// multiply carry-less on YMM registers.
func HasVPCLMULQDQ() bool { return hasVPCLMULQDQ }

func detectVPCLMULQDQ() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	_, _, ecx7, _ := cpuid(7, 0)
	return ecx1&(1<<1) != 0 && ecx7&(1<<10) != 0
}

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
func addAVX2(dst, a, b *uint64, n int, q uint64)

//go:noescape
func subAVX2(dst, a, b *uint64, n int, q uint64)

//go:noescape
func reduceOnceAVX2(dst, a *uint64, n int, q uint64)

//go:noescape
func mulAVX2(dst, a, b *uint64, n int, q, mu, s1, s2 uint64)

//go:noescape
func mulAddAVX2(dst, a, b *uint64, n int, q, mu, s1, s2 uint64)

//go:noescape
func tensorAVX2(t0, t1, t2, a0, a1, b0, b1 *uint64, n int, q, mu, s1, s2 uint64)

//go:noescape
func mulRawAVX2(dst, a, b *uint64, n int)

//go:noescape
func mulAddRawAVX2(dst, a, b *uint64, n int)

//go:noescape
func reduceAVX2(dst, a *uint64, n int, q, m1, r, r32 uint64)

//go:noescape
func extendFinishAVX2(dst, v *uint64, n int, q, m1, r, r32, w, w32 uint64)

//go:noescape
func rescaleAVX2(dst, x, top *uint64, n int, q, m1, qt, c, inv, inv32 uint64)

//go:noescape
func shoupAVX2(dst, a *uint64, n int, w, w32, q uint64)

//go:noescape
func shoupLazyAVX2(dst, a *uint64, n int, w, w32, q uint64)

//go:noescape
func shoupLazyAddAVX2(dst, a *uint64, n int, w, w32, q uint64)

//go:noescape
func shoupLazyAdd2AVX2(dst, a, b *uint64, n int, wa, wa32, wb, wb32, q uint64)

// simd runs op over the longest prefix of rows[0] (the destination) whose
// length is a multiple of four and returns that length; w holds the op's
// constants in the order its kernel takes them, the other rows the operands.
// The dispatch rule is all in the first lines, and every part of it is
// something the code observes: the CPU runs AVX2, Q < 2^30, and there are four
// lanes. Q < 2^30 is what makes every lane's intermediate — a Barrett
// remainder below 4Q, a difference offset by 2Q, a lazy Shoup term — fit the
// 32-bit half of a 64-bit lane that VPSUBD/VPMINUD canonicalize (DESIGN §4d).
func (m Modulus) simd(op vecOp, w []uint64, rows ...[]uint64) int {
	n := len(rows[0]) &^ 3
	q := m.Q
	if !hasAVX2 || n == 0 || q >= 1<<30 {
		return 0
	}
	p := func(i int) *uint64 { return &rows[i][0] }
	switch op {
	case opAdd:
		addAVX2(p(0), p(1), p(2), n, q)
	case opSub:
		subAVX2(p(0), p(1), p(2), n, q)
	case opReduceOnce:
		reduceOnceAVX2(p(0), p(1), n, q)
	case opMul, opMulAdd, opTensor:
		// The two-step Barrett quotient ((x >> (k−1))·μ) >> (k+1) with
		// k = bits(Q) and μ = ⌊2^(2k)/Q⌋ = ⌊barrettHi / 2^(64−2k)⌋ (nested
		// floors).
		k := uint64(bits.Len64(q))
		mu := m.barrettHi >> (64 - 2*k)
		switch op {
		case opMul:
			mulAVX2(p(0), p(1), p(2), n, q, mu, k-1, k+1)
		case opMulAdd:
			mulAddAVX2(p(0), p(1), p(2), n, q, mu, k-1, k+1)
		default:
			tensorAVX2(p(0), p(1), p(2), p(3), p(4), p(5), p(6), n, q, mu, k-1, k+1)
		}
	case opMulRaw:
		mulRawAVX2(p(0), p(1), p(2), n)
	case opMulAddRaw:
		mulAddRawAVX2(p(0), p(1), p(2), n)
	case opReduce, opExtendFinish:
		// x = hi·2^32 + lo ≡ hi·r + lo with r = 2^32 mod Q: two Shoup
		// quotient estimates, by 1 (m1 = ⌊2^32/Q⌋) and by r (r32 =
		// ⌊r·2^32/Q⌋). Both are halves of barrettHi: 2^64/Q = m1·2^32 +
		// r·2^32/Q, and m1·2^32 is a whole number.
		m1, r32 := m.barrettHi>>32, m.barrettHi&(1<<32-1)
		r := 1<<32 - m1*q
		if op == opReduce {
			reduceAVX2(p(0), p(1), n, q, m1, r, r32)
		} else {
			extendFinishAVX2(p(0), p(1), n, q, m1, r, r32, w[0], w[1]>>32)
		}
	case opRescale:
		// w = qt, halfQ, inv, invShoup; the lane adds halfQ + 2Q so that
		// subtracting the lazy (< 2Q) residue of r' cannot borrow.
		rescaleAVX2(p(0), p(1), p(2), n, q, m.barrettHi>>32, w[0], w[1]+2*q, w[2], w[3]>>32)
	case opShoup:
		shoupAVX2(p(0), p(1), n, w[0], w[1]>>32, q)
	case opShoupLazy:
		shoupLazyAVX2(p(0), p(1), n, w[0], w[1]>>32, q)
	case opShoupLazyAdd:
		shoupLazyAddAVX2(p(0), p(1), n, w[0], w[1]>>32, q)
	case opShoupLazyAdd2:
		shoupLazyAdd2AVX2(p(0), p(1), p(2), n, w[0], w[1]>>32, w[2], w[3]>>32, q)
	}
	return n
}
