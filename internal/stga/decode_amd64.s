#include "textflag.h"

// lanes<> holds the site index of each accumulator lane: three YMM
// vectors of four int64s, 0..11.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
DATA lanes<>+64(SB)/8, $8
DATA lanes<>+72(SB)/8, $9
DATA lanes<>+80(SB)/8, $10
DATA lanes<>+88(SB)/8, $11
GLOBL lanes<>(SB), RODATA|NOPTR, $96

// GENE adds the gene at ptr into its accumulators
// a0..a2: broadcast the site index, compare it with each lane's index,
// AND the current ETC row (SI) with the match mask and add. Lanes that
// do not match add +0. Y12..Y15 are scratch.
#define GENE(ptr, a0, a1, a2) \
	VPBROADCASTQ (ptr), Y12; \
	VPCMPEQQ     lanes<>+0(SB), Y12, Y13; \
	VPCMPEQQ     lanes<>+32(SB), Y12, Y14; \
	VPCMPEQQ     lanes<>+64(SB), Y12, Y15; \
	VANDPD       0(SI), Y13, Y13; \
	VANDPD       32(SI), Y14, Y14; \
	VANDPD       64(SI), Y15, Y15; \
	VADDPD       Y13, a0, a0; \
	VADDPD       Y14, a1, a1; \
	VADDPD       Y15, a2, a2

// SPAN stores at off(DX) the span of the chromosome whose loads are in
// a0..a2: the maximum over lanes with load > 0 of base + load, and
// +0 when there is none. Masked-off lanes become +0, so one maximum
// with the zero vector Y15 folds both cases. x0 is a0's XMM half.
#define SPAN(a0, a1, a2, off) \
	VCMPPD       $0x0e, Y15, a0, Y12; \
	VADDPD       0(DI), a0, a0; \
	VANDPD       Y12, a0, a0; \
	VCMPPD       $0x0e, Y15, a1, Y13; \
	VADDPD       32(DI), a1, a1; \
	VANDPD       Y13, a1, a1; \
	VCMPPD       $0x0e, Y15, a2, Y14; \
	VADDPD       64(DI), a2, a2; \
	VANDPD       Y14, a2, a2; \
	VMAXPD       a1, a0, Y12; \
	VMAXPD       a2, Y12, Y12; \
	VMAXPD       Y15, Y12, Y12; \
	VEXTRACTF128 $1, Y12, X13; \
	VMAXPD       X13, X12, X12; \
	VPERMILPD    $1, X12, X13; \
	VMAXSD       X13, X12, X12; \
	VMOVSD       X12, off(DX)

// func decode4(genes *[4]*int, n int, rows *float64, base *[12]float64, out *[4]float64)
//
// Chromosome c's twelve site loads live in Y(3c)..Y(3c+2), lane k of
// Y(3c+i) holding site 4i+k, so the four chromosomes' accumulators and
// four temporaries use all sixteen YMM registers. Each gene row is
// added in gene order, the scalar decode's per-site order.
TEXT ·decode4(SB), NOSPLIT, $0-40
	MOVQ genes+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ n+8(FP), CX
	MOVQ rows+16(FP), SI
	MOVQ base+24(FP), DI
	MOVQ out+32(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    spans

loop:
	GENE(R8, Y0, Y1, Y2)
	GENE(R9, Y3, Y4, Y5)
	GENE(R10, Y6, Y7, Y8)
	GENE(R11, Y9, Y10, Y11)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $96, SI
	DECQ CX
	JNZ  loop

spans:
	VXORPD Y15, Y15, Y15
	SPAN(Y0, Y1, Y2, 0)
	SPAN(Y3, Y4, Y5, 8)
	SPAN(Y6, Y7, Y8, 16)
	SPAN(Y9, Y10, Y11, 24)
	VZEROUPPER
	RET
