//go:build amd64 && !purego

#include "textflag.h"

// CRC-32C (Castagnoli, reflected) by folding with carry-less multiplies, after
// Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", in the bit-reflected form hash/crc32's IEEE kernel uses. A
// 128-bit lane holding the state ahead of D more bits of message is carried
// past them as lo·(x^(D+32) mod P) ⊕ hi·(x^(D-32) mod P), each constant
// bit-reflected and shifted left by one; the final 128 bits are reduced to 32
// by two more folds and a Barrett reduction (P' and u' = x^64 div P,
// reflected).

// FOLD carries each lane of acc past the distance whose constants k holds and
// adds the message block src: acc = acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ src; t is
// scratch.
#define FOLD(k, acc, t, src) \
	VPCLMULQDQ $0x00, k, acc, t; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPXOR      t, acc, acc; \
	VPXOR      src, acc, acc

// func castagnoliCLMUL(crc uint32, p []byte) uint32
//
// The CRC state crc (not inverted) carried over p; len(p) is at least 128 and
// a multiple of 16.
TEXT ·castagnoliCLMUL(SB), NOSPLIT, $0-36
	MOVL    crc+0(FP), AX
	MOVQ    p_base+8(FP), SI
	MOVQ    p_len+16(FP), CX

	// Four 256-bit accumulators over the first 128 bytes, the state added to
	// the first four.
	VMOVD   AX, X0
	VPXOR   (SI), Y0, Y1
	VMOVDQU 32(SI), Y2
	VMOVDQU 64(SI), Y3
	VMOVDQU 96(SI), Y4
	ADDQ    $128, SI
	SUBQ    $128, CX
	CMPQ    CX, $128
	JB      fold4

	// Each lane moves 1024 bits a step.
	VBROADCASTI128 k1024<>(SB), Y0

loop128:
	FOLD(Y0, Y1, Y5, (SI))
	FOLD(Y0, Y2, Y6, 32(SI))
	FOLD(Y0, Y3, Y7, 64(SI))
	FOLD(Y0, Y4, Y8, 96(SI))
	ADDQ $128, SI
	SUBQ $128, CX
	CMPQ CX, $128
	JAE  loop128

fold4:
	// Four accumulators into one, 256 bits apart, then its low lane into its
	// high one.
	VBROADCASTI128 k256<>(SB), Y0
	FOLD(Y0, Y1, Y5, Y2)
	FOLD(Y0, Y1, Y5, Y3)
	FOLD(Y0, Y1, Y5, Y4)
	VMOVDQU        k128<>(SB), X0
	VEXTRACTI128   $1, Y1, X2
	FOLD(X0, X1, X5, X2)

	// The 16-byte blocks left.
	CMPQ CX, $16
	JB   reduce

loop16:
	FOLD(X0, X1, X5, (SI))
	ADDQ $16, SI
	SUBQ $16, CX
	CMPQ CX, $16
	JAE  loop16

reduce:
	// 128 bits to 64: the low half times x^96 into the high half.
	VPCMPEQB   X3, X3, X3
	VPCLMULQDQ $0x01, X1, X0, X5
	VPSRLDQ    $8, X1, X1
	VPXOR      X5, X1, X1

	// 96 bits to 64: the low word times x^64 into the rest.
	VPSRLQ     $32, X3, X3
	VMOVQ      r5<>(SB), X0
	VPSRLDQ    $4, X1, X2
	VPAND      X3, X1, X1
	VPCLMULQDQ $0x00, X0, X1, X1
	VPXOR      X2, X1, X1

	// Barrett: T1 = (low word)·u', T2 = (low word of T1)·P', CRC = bits
	// 32..63 of the state ⊕ T2.
	VMOVDQU    rupoly<>(SB), X0
	VPAND      X3, X1, X2
	VPCLMULQDQ $0x10, X0, X2, X2
	VPAND      X3, X2, X2
	VPCLMULQDQ $0x00, X0, X2, X2
	VPXOR      X1, X2, X2
	VPEXTRD    $1, X2, AX

	VZEROUPPER
	MOVL AX, ret+32(FP)
	RET

// Fold constants, low qword x^(D+32), high qword x^(D-32), for D = 1024,
// 256 and 128; then x^64 and the Barrett pair {P', u'}.
DATA k1024<>+0(SB)/8, $0x06992cea2
DATA k1024<>+8(SB)/8, $0x00d3b6092
DATA k256<>+0(SB)/8, $0x1384aa63a
DATA k256<>+8(SB)/8, $0x0ba4fc28e
DATA k128<>+0(SB)/8, $0x0f20c0dfe
DATA k128<>+8(SB)/8, $0x14cd00bd6
DATA r5<>+0(SB)/8, $0x0dd45aab8
DATA rupoly<>+0(SB)/8, $0x105ec76f1
DATA rupoly<>+8(SB)/8, $0x0dea713f1

GLOBL k1024<>(SB), RODATA, $16
GLOBL k256<>(SB), RODATA, $16
GLOBL k128<>(SB), RODATA, $16
GLOBL r5<>(SB), RODATA, $8
GLOBL rupoly<>(SB), RODATA, $16
