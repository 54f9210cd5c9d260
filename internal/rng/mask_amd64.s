#include "textflag.h"

// func fillBernoulliAVX2(lanes *[4]Stream, dst []uint64, rawThr uint64)
//
// Y0..Y3 hold state words s0..s3 with stripe j in 64-bit lane j, so one
// pass of the step body advances all four stripes by one draw. Y8 is
// the sign bias (1<<63) in every lane and Y9 is rawThr^bias: flipping
// bit 63 on both sides turns the unsigned test draw < rawThr into the
// signed VPCMPGTQ. Sixteen steps fill one word, step k's four hits
// landing at bits 4k..4k+3 (stripe j at 4k+j).
TEXT ·fillBernoulliAVX2(SB), NOSPLIT, $0-40
	MOVQ lanes+0(FP), DI
	MOVQ dst_base+8(FP), SI
	MOVQ dst_len+16(FP), DX
	TESTQ DX, DX
	JZ   ret

	// Stripe j's (s0, s1, s2, s3) is row j; transpose the 4×4 so that
	// row i holds word si of every stripe.
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPUNPCKLQDQ Y1, Y0, Y4
	VPUNPCKHQDQ Y1, Y0, Y5
	VPUNPCKLQDQ Y3, Y2, Y6
	VPUNPCKHQDQ Y3, Y2, Y7
	VPERM2I128  $0x20, Y6, Y4, Y0
	VPERM2I128  $0x20, Y7, Y5, Y1
	VPERM2I128  $0x31, Y6, Y4, Y2
	VPERM2I128  $0x31, Y7, Y5, Y3

	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X8
	VPBROADCASTQ X8, Y8
	MOVQ         rawThr+32(FP), AX
	MOVQ         AX, X9
	VPBROADCASTQ X9, Y9
	VPXOR        Y8, Y9, Y9

word:
	XORQ BX, BX
	MOVQ $16, CX

step:
	// out = rotl(s1·5, 7)·9, with ·5 = x + x<<2 and ·9 = x + x<<3.
	VPSLLQ $2, Y1, Y4
	VPADDQ Y1, Y4, Y4
	VPSLLQ $7, Y4, Y5
	VPSRLQ $57, Y4, Y4
	VPOR   Y5, Y4, Y4
	VPSLLQ $3, Y4, Y5
	VPADDQ Y5, Y4, Y4

	// Hit mask: bit j set iff stripe j's draw < rawThr. It enters the
	// accumulator through the top, so after sixteen steps step k's
	// nibble sits at 4k.
	VPXOR     Y8, Y4, Y4
	VPCMPGTQ  Y4, Y9, Y4
	VMOVMSKPD Y4, AX
	SHRQ      $4, BX
	SHLQ      $60, AX
	ORQ       AX, BX

	// State update, in Stream.Uint64's order.
	VPSLLQ $17, Y1, Y5
	VPXOR  Y0, Y2, Y2
	VPXOR  Y1, Y3, Y3
	VPXOR  Y2, Y1, Y1
	VPXOR  Y3, Y0, Y0
	VPXOR  Y5, Y2, Y2
	VPSLLQ $45, Y3, Y5
	VPSRLQ $19, Y3, Y3
	VPOR   Y5, Y3, Y3

	DECQ CX
	JNZ  step
	MOVQ BX, (SI)
	ADDQ $8, SI
	DECQ DX
	JNZ  word

	// The transpose is its own inverse.
	VPUNPCKLQDQ Y1, Y0, Y4
	VPUNPCKHQDQ Y1, Y0, Y5
	VPUNPCKLQDQ Y3, Y2, Y6
	VPUNPCKHQDQ Y3, Y2, Y7
	VPERM2I128  $0x20, Y6, Y4, Y0
	VPERM2I128  $0x20, Y7, Y5, Y1
	VPERM2I128  $0x31, Y6, Y4, Y2
	VPERM2I128  $0x31, Y7, Y5, Y3
	VMOVDQU     Y0, 0(DI)
	VMOVDQU     Y1, 32(DI)
	VMOVDQU     Y2, 64(DI)
	VMOVDQU     Y3, 96(DI)
	VZEROUPPER

ret:
	RET
