//go:build amd64 && !purego

#include "textflag.h"

// The RPAU lane on four 64-bit lanes, operands in the low dword of each lane
// (VPMULUDQ reads nothing else). Every kernel below takes n > 0, a multiple
// of 4, q < 2^30 and operand lanes below 2^32; the bounds each one relies on
// are in DESIGN §4d.

// CSUB(R, M, T): R = R ≥ M ? R − M : R on the low dword of each lane, for
// R < 2^32: the wrapped difference is the smaller word exactly when R ≥ M.
// M's high dwords are zero, so R's high dwords pass through. T is scratch.
#define CSUB(R, M, T) \
	VPSUBD  M, R, T; \
	VPMINUD T, R, R

// The Shoup product by a constant:
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

// The two-step Barrett reduction of a product P < 2^(2k+1), k = bits(Q):
//
//	P = P − (((P >> (k−1))·MU) >> (k+1))·Q,   MU = ⌊2^(2k)/Q⌋,
//
// with the shift counts k−1 and k+1 in the X registers S1 and S2. Both factors
// of the quotient product are below 2^32; the estimate undershoots ⌊P/Q⌋ by at
// most 2 for P < 2^(2k) and 3 for P < 2^(2k+1), so 0 ≤ P < 4Q < 2^32 on exit.
// T is scratch.
#define BARRETT(P, MU, S1, S2, Q, T) \
	VPSRLQ   S1, P, T; \
	VPMULUDQ MU, T, T; \
	VPSRLQ   S2, T, T; \
	VPMULUDQ Q, T, T;  \
	VPSUBQ   T, P, P

// [0, 4Q) → canonical, with Y10 = 2Q and Y12 = Q.
#define CANON4(R, T) \
	CSUB(R, Y10, T); \
	CSUB(R, Y12, T)

// The reduction of a whole 64-bit lane X = hi·2^32 + lo ≡ hi·r + lo, with
// r = 2^32 mod Q in Y15, r32 = ⌊r·2^32/Q⌋ in Y14 and m1 = ⌊2^32/Q⌋ in Y13:
// the two Shoup quotient estimates (hi by r, lo by 1) each undershoot by at
// most one, so the low dword of X ends at x mod Q + (0…3)·Q < 4Q < 2^32. The
// high dword is left holding garbage; T, U and V are scratch.
#define REDUCE64(X, T, U, V) \
	VPSRLQ   $32, X, T; \
	VPMULUDQ Y13, X, U; \
	VPMULUDQ Y14, T, V; \
	VPSRLQ   $32, U, U; \
	VPSRLQ   $32, V, V; \
	VPADDQ   V, U, U;   \
	VPMULUDQ Y15, T, T; \
	VPMULUDQ Y12, U, U; \
	VPADDQ   T, X, X;   \
	VPSUBQ   U, X, X

// func addAVX2(dst, a, b *uint64, n int, q uint64)
// dst[i] = a[i] + b[i] mod q.
TEXT ·addAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ q+32(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	VPADDQ  (DX)(AX*8), Y0, Y0
	CSUB(Y0, Y12, Y1)
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func subAVX2(dst, a, b *uint64, n int, q uint64)
// dst[i] = a[i] − b[i] mod q, as a[i] + q − b[i] in (0, 2q).
TEXT ·subAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ q+32(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	VPADDQ  Y12, Y0, Y0
	VPSUBQ  (DX)(AX*8), Y0, Y0
	CSUB(Y0, Y12, Y1)
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func reduceOnceAVX2(dst, a *uint64, n int, q uint64)
// dst[i] = a[i] mod q for a[i] < 2q.
TEXT ·reduceOnceAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ q+24(FP), Y12
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	CSUB(Y0, Y12, Y1)
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// The Barrett kernels' shared prologue: q in Y12, 2q in Y10, mu in Y11, the
// shift counts k−1 and k+1 in X13 and X14.
#define BARRETT_CONSTS(qoff, muoff, s1off, s2off) \
	VPBROADCASTQ qoff(FP), Y12;  \
	VPADDQ       Y12, Y12, Y10;  \
	VPBROADCASTQ muoff(FP), Y11; \
	VMOVQ        s1off(FP), X13; \
	VMOVQ        s2off(FP), X14

// func mulAVX2(dst, a, b *uint64, n int, q, mu, s1, s2 uint64)
// dst[i] = a[i]·b[i] mod q.
TEXT ·mulAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	BARRETT_CONSTS(q+32, mu+40, s1+48, s2+56)
	XORQ AX, AX

loop:
	VMOVDQU  (SI)(AX*8), Y0
	VPMULUDQ (DX)(AX*8), Y0, Y0
	BARRETT(Y0, Y11, X13, X14, Y12, Y1)
	CANON4(Y0, Y1)
	VMOVDQU  Y0, (DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func mulAddAVX2(dst, a, b *uint64, n int, q, mu, s1, s2 uint64)
// dst[i] = dst[i] + a[i]·b[i] mod q.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	BARRETT_CONSTS(q+32, mu+40, s1+48, s2+56)
	XORQ AX, AX

loop:
	VMOVDQU  (SI)(AX*8), Y0
	VPMULUDQ (DX)(AX*8), Y0, Y0
	BARRETT(Y0, Y11, X13, X14, Y12, Y1)
	CANON4(Y0, Y1)
	VPADDQ   (DI)(AX*8), Y0, Y0
	CSUB(Y0, Y12, Y1)
	VMOVDQU  Y0, (DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func tensorAVX2(t0, t1, t2, a0, a1, b0, b1 *uint64, n int, q, mu, s1, s2 uint64)
// t0 = a0·b0, t1 = a0·b1 + a1·b0 (one reduction of the < 2q² raw sum), t2 =
// a1·b1, all mod q; a lane's four operands are loaded before its three results
// are stored, so any output may alias any operand.
TEXT ·tensorAVX2(SB), NOSPLIT, $0-96
	MOVQ t0+0(FP), DI
	MOVQ t1+8(FP), R8
	MOVQ t2+16(FP), R9
	MOVQ a0+24(FP), SI
	MOVQ a1+32(FP), R10
	MOVQ b0+40(FP), DX
	MOVQ b1+48(FP), R11
	MOVQ n+56(FP), CX
	BARRETT_CONSTS(q+64, mu+72, s1+80, s2+88)
	XORQ AX, AX

loop:
	VMOVDQU  (SI)(AX*8), Y0
	VMOVDQU  (R10)(AX*8), Y1
	VMOVDQU  (DX)(AX*8), Y2
	VMOVDQU  (R11)(AX*8), Y3
	VPMULUDQ Y3, Y0, Y4
	VPMULUDQ Y2, Y1, Y5
	VPADDQ   Y5, Y4, Y4
	VPMULUDQ Y2, Y0, Y0
	VPMULUDQ Y3, Y1, Y1
	BARRETT(Y0, Y11, X13, X14, Y12, Y5)
	BARRETT(Y4, Y11, X13, X14, Y12, Y6)
	BARRETT(Y1, Y11, X13, X14, Y12, Y7)
	CANON4(Y0, Y5)
	CANON4(Y4, Y6)
	CANON4(Y1, Y7)
	VMOVDQU  Y0, (DI)(AX*8)
	VMOVDQU  Y4, (R8)(AX*8)
	VMOVDQU  Y1, (R9)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func mulRawAVX2(dst, a, b *uint64, n int)
// dst[i] = a[i]·b[i], the whole 64-bit product.
TEXT ·mulRawAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

loop:
	VMOVDQU  (SI)(AX*8), Y0
	VPMULUDQ (DX)(AX*8), Y0, Y0
	VMOVDQU  Y0, (DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func mulAddRawAVX2(dst, a, b *uint64, n int)
// dst[i] += a[i]·b[i], the sum in all 64 bits.
TEXT ·mulAddRawAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

loop:
	VMOVDQU  (SI)(AX*8), Y0
	VPMULUDQ (DX)(AX*8), Y0, Y0
	VPADDQ   (DI)(AX*8), Y0, Y0
	VMOVDQU  Y0, (DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// The whole-word reduction's prologue: q in Y12, 2q in Y10, m1 in Y13, r32 in
// Y14, r in Y15, and the low-dword mask in Y11.
#define REDUCE_CONSTS(qoff, m1off, roff, r32off) \
	VPBROADCASTQ qoff(FP), Y12;   \
	VPADDQ       Y12, Y12, Y10;   \
	VPBROADCASTQ m1off(FP), Y13;  \
	VPBROADCASTQ r32off(FP), Y14; \
	VPBROADCASTQ roff(FP), Y15;   \
	VPCMPEQQ     Y11, Y11, Y11;   \
	VPSRLQ       $32, Y11, Y11

// func reduceAVX2(dst, a *uint64, n int, q, m1, r, r32 uint64)
// dst[i] = a[i] mod q for any 64-bit a[i].
TEXT ·reduceAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	REDUCE_CONSTS(q+24, m1+32, r+40, r32+48)
	XORQ AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	REDUCE64(Y0, Y1, Y2, Y3)
	CANON4(Y0, Y1)
	VPAND   Y11, Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func extendFinishAVX2(dst, v *uint64, n int, q, m1, r, r32, w, w32 uint64)
// dst[i] = (dst[i] mod q) − w·v[i] mod q, for any 64-bit dst[i] and v[i] < 2^32.
TEXT ·extendFinishAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         n+16(FP), CX
	REDUCE_CONSTS(q+24, m1+32, r+40, r32+48)
	VPBROADCASTQ w+56(FP), Y8
	VPBROADCASTQ w32+64(FP), Y9
	XORQ         AX, AX

loop:
	VMOVDQU (DI)(AX*8), Y0
	REDUCE64(Y0, Y1, Y2, Y3)
	CANON4(Y0, Y1)
	VMOVDQU (SI)(AX*8), Y3
	SHOUP32(Y3, Y8, Y9, Y12, Y4, Y2)
	CSUB(Y4, Y12, Y2)
	VPADDQ  Y12, Y0, Y0
	VPSUBQ  Y4, Y0, Y0
	CSUB(Y0, Y12, Y1)
	VPAND   Y11, Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func rescaleAVX2(dst, x, top *uint64, n int, q, m1, qt, c, inv, inv32 uint64)
// dst[i] = (x[i] + c − ((top[i] + ⌊qt/2⌋) mod qt mod q)) · inv mod q, with
// c = ⌊qt/2⌋ mod q + 2q: r' = (top + ⌊qt/2⌋) mod qt (< qt < 2^31) is reduced
// into q lazily, below 2q, by the Shoup estimate by 1 (m1 = ⌊2^32/q⌋), so the
// difference lies in (0, 4q) and enters the Shoup product by inv as it is.
TEXT ·rescaleAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         top+16(FP), DX
	MOVQ         n+24(FP), CX
	VPBROADCASTQ q+32(FP), Y12
	VPBROADCASTQ m1+40(FP), Y13
	VPBROADCASTQ qt+48(FP), Y14
	VPSRLQ       $1, Y14, Y15
	VPBROADCASTQ c+56(FP), Y9
	VPBROADCASTQ inv+64(FP), Y8
	VPBROADCASTQ inv32+72(FP), Y11
	XORQ         AX, AX

loop:
	VMOVDQU  (DX)(AX*8), Y0
	VPADDQ   Y15, Y0, Y0
	CSUB(Y0, Y14, Y1)
	VPMULUDQ Y13, Y0, Y1
	VPSRLQ   $32, Y1, Y1
	VPMULUDQ Y12, Y1, Y1
	VPSUBQ   Y1, Y0, Y0
	VPADDQ   (SI)(AX*8), Y9, Y1
	VPSUBQ   Y0, Y1, Y1
	SHOUP32(Y1, Y8, Y11, Y12, Y2, Y3)
	CSUB(Y2, Y12, Y3)
	VMOVDQU  Y2, (DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

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
	CSUB(Y1, Y12, Y2)
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
