//go:build amd64 && !purego

#include "textflag.h"

// The RPAU lane primitive on four 64-bit lanes, operands in the low dword of
// each lane (VPMULUDQ reads nothing else):
//
//	R = X·W − ((X·W32) >> 32)·Q
//
// with W32 = ⌊W·2^32/Q⌋, the 64-bit Shoup companion of the twiddle shifted
// right by 32 — so the existing ROM serves, read at its high dword. For
// X < 2^32 and W < Q < 2^30 the quotient estimate undershoots ⌊X·W/Q⌋ by at
// most one: 0 ≤ R < 2Q, and every lazy sum of the butterflies stays below
// 4Q < 2^32, a whole 64-bit lane with a zero high dword. T is scratch; R and T
// must differ from each other and from W, W32 and Q.
#define SHOUP32(X, W, W32, Q, R, T) \
	VPMULUDQ W32, X, T; \
	VPMULUDQ W, X, R;   \
	VPSRLQ   $32, T, T; \
	VPMULUDQ Q, T, T;   \
	VPSUBQ   T, R, R

// X = X ≥ M ? X − M : X on the low dwords (X < 2M < 2^32); T is scratch.
#define CONDSUB(X, M, T) \
	VPSUBD  M, X, T; \
	VPMINUD T, X, X

// Register roles shared by every kernel: Y13 = q, Y14 = 2q.

// func fwdLevelAVX2(dst, src *uint64, groups, span int, w, ws *uint64, q uint64)
//
// One Cooley–Tukey level with a twiddle per group: for each of the groups
// blocks of 2·span coefficients, lo/hi = the block's halves and
//
//	u = lo mod⁺ 2q;  v = hi·w lazily;  lo' = u + v;  hi' = u − v + 2q
//
// read from src and written to dst (equal for an in-place level). span is a
// multiple of 4; w and ws point at the level's first twiddle and its Shoup
// companion.
TEXT ·fwdLevelAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         groups+16(FP), CX
	MOVQ         span+24(FP), DX
	MOVQ         w+32(FP), R8
	MOVQ         ws+40(FP), R9
	VPBROADCASTQ q+48(FP), Y13
	VPADDQ       Y13, Y13, Y14
	SHLQ         $3, DX              // span in bytes

group:
	VPBROADCASTQ (R8), Y11           // w
	VPBROADCASTD 4(R9), Y12          // w32: the companion's high dword
	ADDQ         $8, R8
	ADDQ         $8, R9
	LEAQ         (SI)(DX*1), R10     // hi halves
	LEAQ         (DI)(DX*1), R11
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*1), Y0           // u
	VMOVDQU (R10)(AX*1), Y1          // x
	CONDSUB(Y0, Y14, Y2)
	SHOUP32(Y1, Y11, Y12, Y13, Y3, Y4)
	VPADDQ  Y14, Y0, Y5
	VPADDQ  Y3, Y0, Y0               // u + v
	VPSUBQ  Y3, Y5, Y5               // u − v + 2q
	VMOVDQU Y0, (DI)(AX*1)
	VMOVDQU Y5, (R11)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     loop

	LEAQ (SI)(DX*2), SI
	LEAQ (DI)(DX*2), DI
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET

// func fwdTailAVX2(a *uint64, n int, tw2, tw2S, tw1, tw1S *uint64, q uint64)
//
// The last two forward levels (spans 2 and 1) fused, two radix-4 groups — 8
// coefficients — per iteration, with the canonical reduction folded into the
// stores. tw2/tw2S point at the span-2 level's twiddles (one per group),
// tw1/tw1S at the span-1 level's (two per group). n is a multiple of 8.
TEXT ·fwdTailAVX2(SB), NOSPLIT, $0-56
	MOVQ         a+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         tw2+16(FP), R8
	MOVQ         tw2S+24(FP), R9
	MOVQ         tw1+32(FP), R10
	MOVQ         tw1S+40(FP), R11
	VPBROADCASTQ q+48(FP), Y13
	VPADDQ       Y13, Y13, Y14
	SHRQ         $3, CX

loop:
	VMOVDQU    (DI), Y0              // a0 a1 | a2 a3
	VMOVDQU    32(DI), Y1            // a4 a5 | a6 a7
	VPERM2I128 $0x20, Y1, Y0, Y2     // u: a0 a1 | a4 a5
	VPERM2I128 $0x31, Y1, Y0, Y3     // x: a2 a3 | a6 a7
	VMOVDQU    (R8), X4
	VMOVDQU    (R9), X5
	VPERMQ     $0x50, Y4, Y4         // w:   g g | g+1 g+1
	VPSRLQ     $32, Y5, Y5
	VPERMQ     $0x50, Y5, Y5         // w32, same lanes
	CONDSUB(Y2, Y14, Y6)
	SHOUP32(Y3, Y4, Y5, Y13, Y7, Y6)
	VPADDQ     Y14, Y2, Y9
	VPADDQ     Y7, Y2, Y8            // b0 b1 | b4 b5
	VPSUBQ     Y7, Y9, Y9            // b2 b3 | b6 b7

	// Span 1: butterflies (b0,b1) (b2,b3) (b4,b5) (b6,b7), twiddles in that order.
	VPUNPCKLQDQ Y9, Y8, Y2           // u: b0 b2 | b4 b6
	VPUNPCKHQDQ Y9, Y8, Y3           // x: b1 b3 | b5 b7
	VMOVDQU     (R10), Y4
	VMOVDQU     (R11), Y5
	VPSRLQ      $32, Y5, Y5
	CONDSUB(Y2, Y14, Y6)
	SHOUP32(Y3, Y4, Y5, Y13, Y7, Y6)
	VPADDQ      Y14, Y2, Y9
	VPADDQ      Y7, Y2, Y8           // c0 c2 | c4 c6, < 4q
	VPSUBQ      Y7, Y9, Y9           // c1 c3 | c5 c7, < 4q
	CONDSUB(Y8, Y14, Y6)
	CONDSUB(Y9, Y14, Y7)
	CONDSUB(Y8, Y13, Y6)
	CONDSUB(Y9, Y13, Y7)
	VPUNPCKLQDQ Y9, Y8, Y0           // c0 c1 | c4 c5
	VPUNPCKHQDQ Y9, Y8, Y1           // c2 c3 | c6 c7
	VPERM2I128  $0x20, Y1, Y0, Y2    // c0 c1 | c2 c3
	VPERM2I128  $0x31, Y1, Y0, Y3    // c4 c5 | c6 c7
	VMOVDQU     Y2, (DI)
	VMOVDQU     Y3, 32(DI)

	ADDQ $64, DI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func invHeadAVX2(a *uint64, n int, tw1, tw1S, tw2, tw2S *uint64, q uint64)
//
// The first two Gentleman–Sande levels (spans 1 and 2) fused, the mirror of
// fwdTailAVX2: 8 coefficients per iteration, tw1/tw1S the span-1 twiddles (two
// per radix-4 group), tw2/tw2S the span-2 ones (one per group). Each butterfly is
//
//	s = (u + v) mod⁺ 2q;  d = u − v + 2q;  lo' = s;  hi' = d·w lazily
TEXT ·invHeadAVX2(SB), NOSPLIT, $0-56
	MOVQ         a+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         tw1+16(FP), R10
	MOVQ         tw1S+24(FP), R11
	MOVQ         tw2+32(FP), R8
	MOVQ         tw2S+40(FP), R9
	VPBROADCASTQ q+48(FP), Y13
	VPADDQ       Y13, Y13, Y14
	SHRQ         $3, CX

loop:
	VMOVDQU     (DI), Y0             // a0 a1 | a2 a3
	VMOVDQU     32(DI), Y1           // a4 a5 | a6 a7
	VPERM2I128  $0x20, Y1, Y0, Y2    // a0 a1 | a4 a5
	VPERM2I128  $0x31, Y1, Y0, Y3    // a2 a3 | a6 a7
	VPUNPCKLQDQ Y3, Y2, Y0           // u: a0 a2 | a4 a6
	VPUNPCKHQDQ Y3, Y2, Y1           // v: a1 a3 | a5 a7
	VMOVDQU     (R10), Y4
	VMOVDQU     (R11), Y5
	VPSRLQ      $32, Y5, Y5
	VPADDQ      Y1, Y0, Y8           // s
	VPADDQ      Y14, Y0, Y3
	VPSUBQ      Y1, Y3, Y3           // d
	CONDSUB(Y8, Y14, Y6)             // b0 b2 | b4 b6
	SHOUP32(Y3, Y4, Y5, Y13, Y9, Y6) // b1 b3 | b5 b7

	// Span 2: butterflies (b0,b2) (b1,b3) | (b4,b6) (b5,b7).
	VPUNPCKLQDQ Y9, Y8, Y0           // u: b0 b1 | b4 b5
	VPUNPCKHQDQ Y9, Y8, Y1           // v: b2 b3 | b6 b7
	VMOVDQU     (R8), X4
	VMOVDQU     (R9), X5
	VPERMQ      $0x50, Y4, Y4        // w:   g g | g+1 g+1
	VPSRLQ      $32, Y5, Y5
	VPERMQ      $0x50, Y5, Y5
	VPADDQ      Y1, Y0, Y8           // s
	VPADDQ      Y14, Y0, Y3
	VPSUBQ      Y1, Y3, Y3           // d
	CONDSUB(Y8, Y14, Y6)             // s0 s1 | s4 s5
	SHOUP32(Y3, Y4, Y5, Y13, Y9, Y6) // d2 d3 | d6 d7
	VPERM2I128  $0x20, Y9, Y8, Y0    // s0 s1 | d2 d3
	VPERM2I128  $0x31, Y9, Y8, Y1    // s4 s5 | d6 d7
	VMOVDQU     Y0, (DI)
	VMOVDQU     Y1, 32(DI)

	ADDQ $64, DI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func invLevelAVX2(a *uint64, groups, span int, w, ws *uint64, q uint64)
//
// One Gentleman–Sande level in place with a twiddle per group; span is a
// multiple of 4, the layout that of fwdLevelAVX2.
TEXT ·invLevelAVX2(SB), NOSPLIT, $0-48
	MOVQ         a+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         span+16(FP), DX
	MOVQ         w+24(FP), R8
	MOVQ         ws+32(FP), R9
	VPBROADCASTQ q+40(FP), Y13
	VPADDQ       Y13, Y13, Y14
	SHLQ         $3, DX

group:
	VPBROADCASTQ (R8), Y11
	VPBROADCASTD 4(R9), Y12
	ADDQ         $8, R8
	ADDQ         $8, R9
	LEAQ         (SI)(DX*1), R10
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*1), Y0           // u
	VMOVDQU (R10)(AX*1), Y1          // v
	VPADDQ  Y14, Y0, Y3
	VPADDQ  Y1, Y0, Y0               // s
	VPSUBQ  Y1, Y3, Y3               // d < 4q
	CONDSUB(Y0, Y14, Y2)
	SHOUP32(Y3, Y11, Y12, Y13, Y5, Y4)
	VMOVDQU Y0, (SI)(AX*1)
	VMOVDQU Y5, (R10)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     loop

	LEAQ (SI)(DX*2), SI
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET

// func invLastAVX2(a *uint64, half int, nInv, nInv32, wN, wN32, q uint64)
//
// The last inverse level with the scaling folded in: lo' = (u + v)·n⁻¹ and
// hi' = (u − v + 2q)·(ψ^-bitrev(1)·n⁻¹), both canonical. half = n/2 is a
// multiple of 4; nInv32 and wN32 are the Shoup companions shifted right by 32.
TEXT ·invLastAVX2(SB), NOSPLIT, $0-56
	MOVQ         a+0(FP), SI
	MOVQ         half+8(FP), DX
	VPBROADCASTQ nInv+16(FP), Y9
	VPBROADCASTQ nInv32+24(FP), Y10
	VPBROADCASTQ wN+32(FP), Y11
	VPBROADCASTQ wN32+40(FP), Y12
	VPBROADCASTQ q+48(FP), Y13
	VPADDQ       Y13, Y13, Y14
	SHLQ         $3, DX
	LEAQ         (SI)(DX*1), R10
	XORQ         AX, AX

loop:
	VMOVDQU (SI)(AX*1), Y0           // u
	VMOVDQU (R10)(AX*1), Y1          // v
	VPADDQ  Y14, Y0, Y3
	VPADDQ  Y1, Y0, Y0               // s < 4q
	VPSUBQ  Y1, Y3, Y3               // d < 4q
	SHOUP32(Y0, Y9, Y10, Y13, Y5, Y4)
	SHOUP32(Y3, Y11, Y12, Y13, Y6, Y7)
	CONDSUB(Y5, Y13, Y4)
	CONDSUB(Y6, Y13, Y7)
	VMOVDQU Y5, (SI)(AX*1)
	VMOVDQU Y6, (R10)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     loop
	VZEROUPPER
	RET
