//go:build amd64 && !purego

#include "textflag.h"

// The fraction lanes of fixed.go on the vector unit. Every kernel takes
// n > 0, a multiple of 4, and touches exactly n lanes. Every XMM move is
// VEX-encoded: one legacy-SSE instruction among the YMM ones costs an
// SSE/AVX state transition on every call.

// BCAST64 broadcasts the 64-bit constant imm to the four lanes of yreg
// through the general register tmp and xreg, yreg's low half.
#define BCAST64(imm, tmp, xreg, yreg) \
	MOVQ         imm, tmp;  \
	VMOVQ        tmp, xreg; \
	VPBROADCASTQ xreg, yreg

// func fracAddMul2AVX2(s *float64, x1, x2 *uint64, f1, f2 float64, n int)
//
// s[c] = (s[c] + float64(x1[c])·f1) + float64(x2[c])·f2, four lanes per
// iteration. A residue below 2^52 ORed into the bits of 2^52 is the double
// 2^52 + x exactly; subtracting 2^52 leaves x.
TEXT ·fracAddMul2AVX2(SB), NOSPLIT, $0-48
	MOVQ         s+0(FP), DI
	MOVQ         x1+8(FP), SI
	MOVQ         x2+16(FP), DX
	VBROADCASTSD f1+24(FP), Y3
	VBROADCASTSD f2+32(FP), Y4
	MOVQ         n+40(FP), CX
	BCAST64($0x4330000000000000, AX, X2, Y2)

add:
	VPOR    (SI), Y2, Y0
	VPOR    (DX), Y2, Y1
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y2, Y1, Y1
	VMULPD  Y3, Y0, Y0
	VMULPD  Y4, Y1, Y1
	VADDPD  (DI), Y0, Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     add
	VZEROUPPER
	RET

// func fracRoundAVX2(v *uint64, s *float64, eps float64, n int) (flagged bool)
//
// v[c] = floor(s) + [d > 0] with d = (s − floor(s)) − ½, or all ones where
// |d| ≤ eps, and s[c] = 0; flagged is whether any lane was. The floor, below
// 2^52, comes back as an integer by the 2^52 trick in reverse: add 2^52,
// subtract its bits. The comparison masks are all ones per true lane, so
// subtracting the d > 0 mask adds one and ORing the band mask writes the
// flag.
TEXT ·fracRoundAVX2(SB), NOSPLIT, $0-33
	MOVQ         v+0(FP), DI
	MOVQ         s+8(FP), SI
	VBROADCASTSD eps+16(FP), Y5
	MOVQ         n+24(FP), CX
	BCAST64($0x4330000000000000, AX, X2, Y2) // 2^52
	BCAST64($0x3FE0000000000000, AX, X3, Y3) // ½
	BCAST64($0x7FFFFFFFFFFFFFFF, AX, X4, Y4) // |·|
	VXORPD       Y6, Y6, Y6                  // 0
	VXORPD       Y7, Y7, Y7                  // the OR of the band masks

round:
	VMOVUPD  (SI), Y0
	VMOVUPD  Y6, (SI)           // the lane is consumed
	VROUNDPD $1, Y0, Y1         // floor(s)
	VSUBPD   Y1, Y0, Y0         // frac(s), exact
	VSUBPD   Y3, Y0, Y0         // d
	VANDPD   Y4, Y0, Y8         // |d|
	VCMPPD   $2, Y5, Y8, Y8     // |d| ≤ eps
	VCMPPD   $0x1E, Y6, Y0, Y9  // d > 0
	VADDPD   Y2, Y1, Y1
	VPSUBQ   Y2, Y1, Y1         // floor(s) as an integer
	VPSUBQ   Y9, Y1, Y1
	VPOR     Y8, Y1, Y1
	VORPD    Y8, Y7, Y7
	VMOVDQU  Y1, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JNZ      round
	VMOVMSKPD Y7, AX
	TESTL    AX, AX
	SETNE    flagged+32(FP)
	VZEROUPPER
	RET
