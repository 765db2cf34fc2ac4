//go:build amd64 && !purego

#include "textflag.h"

// The wire row kernels of words.go on the vector unit. Every kernel takes
// n > 0, a multiple of 8, and touches exactly n coefficients or words.

// The largest of the eight dwords of Y0 into AX, zero-extended; X1 is scratch.
#define HMAX \
	VEXTRACTI128 $1, Y0, X1; \
	VPMAXUD      X1, X0, X0; \
	VPSHUFD      $0x4E, X0, X1; \
	VPMAXUD      X1, X0, X0; \
	VPSHUFD      $0xB1, X0, X1; \
	VPMAXUD      X1, X0, X0; \
	VMOVD        X0, AX

// func packWordsAVX2(dst *byte, src *uint64, n int)
//
// The low dword of each coefficient, eight per iteration: VSHUFPS $0x88 takes
// dwords 0 and 2 of every 128-bit lane of both loads (the words of
// coefficients 0 1 4 5 | 2 3 6 7), and VPERMQ $0xD8 swaps the middle pairs.
TEXT ·packWordsAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

pack:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMQ  $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     pack
	VZEROUPPER
	RET

// func unpackWordsAVX2(dst *uint64, src *byte, n int) (largest uint32)
//
// Each 128-bit half of eight words zero-extended to four coefficients, and
// the running maximum of the words, kept in the zero-extended lanes (their
// high dwords are 0, so they do not raise it).
TEXT ·unpackWordsAVX2(SB), NOSPLIT, $0-28
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  n+16(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4

unpack:
	VPMOVZXDQ (SI), Y2
	VPMOVZXDQ 16(SI), Y3
	VMOVDQU   Y2, (DI)
	VMOVDQU   Y3, 32(DI)
	VPMAXUD   Y2, Y0, Y0
	VPMAXUD   Y3, Y4, Y4
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       unpack
	VPMAXUD   Y4, Y0, Y0
	HMAX
	MOVL      AX, largest+24(FP)
	VZEROUPPER
	RET

// func maxWordAVX2(src *byte, n int) (largest uint32)
//
// The largest word, sixteen per iteration into two accumulators straight
// from memory, then the odd block of eight if there is one.
TEXT ·maxWordAVX2(SB), NOSPLIT, $0-20
	MOVQ  src+0(FP), SI
	MOVQ  n+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
	SUBQ  $16, CX
	JLT   last

pair:
	VPMAXUD (SI), Y0, Y0
	VPMAXUD 32(SI), Y2, Y2
	ADDQ    $64, SI
	SUBQ    $16, CX
	JGE     pair

last:
	ADDQ    $16, CX // 0 or 8 words left
	JZ      done
	VPMAXUD (SI), Y0, Y0

done:
	VPMAXUD Y2, Y0, Y0
	HMAX
	MOVL    AX, largest+16(FP)
	VZEROUPPER
	RET

// func equalAVX2(a, b *uint64, n int) bool
//
// Eight coefficients per iteration as two VPCMPEQQ of four; the first block
// holding a difference ends the loop.
TEXT ·equalAVX2(SB), NOSPLIT, $0-25
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX

cmp:
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y1
	VPCMPEQQ  (DI), Y0, Y0
	VPCMPEQQ  32(DI), Y1, Y1
	VPAND     Y1, Y0, Y0
	VPMOVMSKB Y0, AX
	CMPL      AX, $0xFFFFFFFF
	JNE       differ
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       cmp
	VZEROUPPER
	MOVB      $1, ret+24(FP)
	RET

differ:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET
