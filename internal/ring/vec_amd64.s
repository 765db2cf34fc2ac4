//go:build amd64 && !purego

#include "textflag.h"

// The RPAU lane primitive on four 64-bit lanes, operands in the low dword of
// each lane (VPMULUDQ reads nothing else):
//
//	R = X·W − ((X·W32) >> 32)·Q
//
// with W32 = ⌊W·2^32/Q⌋, the 64-bit Shoup companion of W shifted right by 32.
// For X < 2^32 and W < Q < 2^31 the quotient estimate undershoots ⌊X·W/Q⌋ by
// at most one, so 0 ≤ R < 2Q — a whole 64-bit lane with a zero high dword.
// T is scratch; R and T must differ from each other and from W, W32 and Q.
#define SHOUP32(X, W, W32, Q, R, T) \
	VPMULUDQ W32, X, T; \
	VPMULUDQ W, X, R;   \
	VPSRLQ   $32, T, T; \
	VPMULUDQ Q, T, T;   \
	VPSUBQ   T, R, R

// Every kernel below takes n > 0, a multiple of 4, and a[i] < 2^32.

// func shoupAVX2(dst, a *uint64, n int, w, w32, q uint64)
// dst[i] = w·a[i] mod q, canonical.
TEXT ·shoupAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ w+24(FP), Y10
	VPBROADCASTQ w32+32(FP), Y11
	VPBROADCASTQ q+40(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	SHOUP32(Y0, Y10, Y11, Y12, Y1, Y2)
	VPSUBD  Y12, Y1, Y2
	VPMINUD Y2, Y1, Y1               // r ≥ q ? r − q : r
	VMOVDQU Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func shoupLazyAVX2(dst, a *uint64, n int, w, w32, q uint64)
// dst[i] = w·a[i] mod q in [0, 2q).
TEXT ·shoupLazyAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ w+24(FP), Y10
	VPBROADCASTQ w32+32(FP), Y11
	VPBROADCASTQ q+40(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	SHOUP32(Y0, Y10, Y11, Y12, Y1, Y2)
	VMOVDQU Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func shoupLazyAddAVX2(dst, a *uint64, n int, w, w32, q uint64)
// dst[i] += (w·a[i] mod q in [0, 2q)), the sum in all 64 bits.
TEXT ·shoupLazyAddAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ w+24(FP), Y10
	VPBROADCASTQ w32+32(FP), Y11
	VPBROADCASTQ q+40(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	SHOUP32(Y0, Y10, Y11, Y12, Y1, Y2)
	VPADDQ  (DI)(AX*8), Y1, Y1
	VMOVDQU Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func shoupLazyAdd2AVX2(dst, a, b *uint64, n int, wa, wa32, wb, wb32, q uint64)
// dst[i] += (wa·a[i] mod q) + (wb·b[i] mod q), each term in [0, 2q).
TEXT ·shoupLazyAdd2AVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ wa+32(FP), Y8
	VPBROADCASTQ wa32+40(FP), Y9
	VPBROADCASTQ wb+48(FP), Y10
	VPBROADCASTQ wb32+56(FP), Y11
	VPBROADCASTQ q+64(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU (DX)(AX*8), Y3
	SHOUP32(Y0, Y8, Y9, Y12, Y1, Y2)
	SHOUP32(Y3, Y10, Y11, Y12, Y4, Y5)
	VPADDQ  Y4, Y1, Y1
	VPADDQ  (DI)(AX*8), Y1, Y1
	VMOVDQU Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET
