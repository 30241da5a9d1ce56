#include "textflag.h"

// The update pass of fistaStepFused's AVX2 path (fistaStepAVX2 in
// fused.go). Lane l of block b is coefficient 8b+l; the last, partial
// block loads and stores through a lane mask, and its masked-off lanes
// load +0. Every product, difference and quotient rounds on its own (no
// FMA), and each commutative operation keeps the operand order the Go
// loop compiles to, so a NaN meeting a NaN keeps the same payload.

// laneIndex holds 0…7; count > laneIndex masks in a block's first
// count lanes.
DATA laneIndex<>+0(SB)/4, $0
DATA laneIndex<>+4(SB)/4, $1
DATA laneIndex<>+8(SB)/4, $2
DATA laneIndex<>+12(SB)/4, $3
DATA laneIndex<>+16(SB)/4, $4
DATA laneIndex<>+20(SB)/4, $5
DATA laneIndex<>+24(SB)/4, $6
DATA laneIndex<>+28(SB)/4, $7
GLOBL laneIndex<>(SB), RODATA|NOPTR, $32

// The 8-lane constants of UPDATE: +0, the sign bit, 1 and −1. They are
// memory operands so that the lane sums keep four registers.
DATA zero8<>+0(SB)/8, $0
DATA zero8<>+8(SB)/8, $0
DATA zero8<>+16(SB)/8, $0
DATA zero8<>+24(SB)/8, $0
GLOBL zero8<>(SB), RODATA|NOPTR, $32
DATA sign8<>+0(SB)/8, $0x8000000080000000
DATA sign8<>+8(SB)/8, $0x8000000080000000
DATA sign8<>+16(SB)/8, $0x8000000080000000
DATA sign8<>+24(SB)/8, $0x8000000080000000
GLOBL sign8<>(SB), RODATA|NOPTR, $32
DATA one8<>+0(SB)/8, $0x3f8000003f800000
DATA one8<>+8(SB)/8, $0x3f8000003f800000
DATA one8<>+16(SB)/8, $0x3f8000003f800000
DATA one8<>+24(SB)/8, $0x3f8000003f800000
GLOBL one8<>(SB), RODATA|NOPTR, $32
DATA minusOne8<>+0(SB)/8, $0xbf800000bf800000
DATA minusOne8<>+8(SB)/8, $0xbf800000bf800000
DATA minusOne8<>+16(SB)/8, $0xbf800000bf800000
DATA minusOne8<>+24(SB)/8, $0xbf800000bf800000
GLOBL minusOne8<>(SB), RODATA|NOPTR, $32

// UPDATE is the update of one block from h in Y0, y_k in Y1 and α_{k−1}
// in Y5. It leaves α_k in Y4, d in Y5, y_{k+1} in Y3 and the restart
// product in Y1, and folds |α_k| and |d| into the lane maxima Y7 and
// Y6; Y0 and Y2 are free after it.
//
// v = y − (h+h)·step; a = ShrinkBranchless(v, thr), with the
// comparisons as VCMPPS masks (ordered, so false on NaN): |v| is v with
// its sign flipped where v < 0 (−0 and NaN keep theirs),
// m = |v| − thr, pos = 1 where m > 0 else 0, sgn = 1 where v > 0, −1
// where v < 0, else 0, and a = sgn·(pos·m); d = a − α_{k−1};
// y_{k+1} = d·β + a; the restart product is (y − a)·d. The maxima fold
// |a| and |d| with the sign cleared, as VMAXPS(|x|, m) = |x| > m ? |x|
// : m: they start at +0 and take only larger non-NaN values, so the
// sign of a zero and a NaN never reach them, and the max over lanes is
// the Go loop's max in any order.
#define UPDATE \
	VADDPS Y0, Y0, Y0; \
	VMULPS Y15, Y0, Y0; \
	VSUBPS Y0, Y1, Y0; \
	VCMPPS $0x11, zero8<>(SB), Y0, Y2; \
	VXORPS sign8<>(SB), Y0, Y3; \
	VBLENDVPS Y2, Y3, Y0, Y3; \
	VSUBPS Y14, Y3, Y3; \
	VCMPPS $0x1E, zero8<>(SB), Y3, Y4; \
	VANDPS one8<>(SB), Y4, Y4; \
	VMULPS Y3, Y4, Y3; \
	VCMPPS $0x1E, zero8<>(SB), Y0, Y4; \
	VANDPS one8<>(SB), Y4, Y4; \
	VBLENDVPS Y2, minusOne8<>(SB), Y4, Y4; \
	VMULPS Y3, Y4, Y4; \
	VSUBPS Y5, Y4, Y5; \
	VSUBPS Y4, Y1, Y1; \
	VMULPS Y5, Y1, Y1; \
	VMULPS Y13, Y5, Y3; \
	VADDPS Y4, Y3, Y3; \
	VANDPS Y9, Y4, Y0; \
	VMAXPS Y7, Y0, Y7; \
	VANDPS Y9, Y5, Y2; \
	VMAXPS Y6, Y2, Y6

// SUMS folds one block's restart products (Y1) and their magnitudes
// into the lane sums Y8 and Y10 and, where R9 (norms) is set, the
// squares of α_k (Y4) and of d (Y5) into Y11 and Y12, with Y0/Y2 as
// scratch. The lane sums only bound the ordered sums (see
// fistaStepAVX2), so their order is free.
#define SUMS(skip) \
	VADDPS Y1, Y8, Y8; \
	VANDPS Y9, Y1, Y0; \
	VADDPS Y0, Y10, Y10; \
	TESTQ R9, R9; \
	JZ   skip; \
	VMULPS Y4, Y4, Y0; \
	VADDPS Y0, Y11, Y11; \
	VMULPS Y5, Y5, Y2; \
	VADDPS Y2, Y12, Y12; \
skip:

// HMAX and HSUM reduce the 8 lanes of \y (whose low half is \x) to its
// lane 0, by max or by a sum tree of depth 3, with X0 as scratch.
#define HMAX(y, x) \
	VEXTRACTF128 $1, y, X0; \
	VMAXPS X0, x, x; \
	VMOVHLPS x, x, X0; \
	VMAXPS X0, x, x; \
	VMOVSHDUP x, X0; \
	VMAXSS X0, x, x

#define HSUM(y, x) \
	VEXTRACTF128 $1, y, X0; \
	VADDPS X0, x, x; \
	VMOVHLPS x, x, X0; \
	VADDPS X0, x, x; \
	VMOVSHDUP x, X0; \
	VADDSS X0, x, x

// func fistaUpdate8(alpha, alphaPrev, yk, half []float32, step, thr, beta float32, norms bool) (maxA, maxD, ip, ipAbs, sa, sd float32)
//
// Registers: DI alpha, SI alphaPrev, DX yk, BX half, CX full blocks
// left, R8 lanes of the partial block, R9 norms, Y0–Y5 as in UPDATE, Y2
// also the partial block's mask (kept at 0(SP) across UPDATE), Y6/Y7
// lane maxima of |d| and |α_k|, Y8/Y10 lane sums of the restart
// products and of their magnitudes, Y11/Y12 lane sums of α_k² and d²,
// Y9 abs mask, Y13 beta, Y14 thr, Y15 step.
TEXT ·fistaUpdate8(SB), NOSPLIT, $32-136
	MOVQ alpha_base+0(FP), DI
	MOVQ alpha_len+8(FP), CX
	MOVQ alphaPrev_base+24(FP), SI
	MOVQ yk_base+48(FP), DX
	MOVQ half_base+72(FP), BX
	VBROADCASTSS step+96(FP), Y15
	VBROADCASTSS thr+100(FP), Y14
	VBROADCASTSS beta+104(FP), Y13
	MOVBQZX norms+108(FP), R9
	MOVL $0x7fffffff, AX
	VMOVD AX, X9
	VBROADCASTSS X9, Y9
	VXORPS Y7, Y7, Y7
	VXORPS Y6, Y6, Y6
	VXORPS Y8, Y8, Y8
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	MOVQ CX, R8
	ANDQ $7, R8
	SHRQ $3, CX
	JZ   updatePartial

updateBlock:
	VMOVUPS (BX), Y0
	VMOVUPS (DX), Y1
	VMOVUPS (SI), Y5
	UPDATE
	VMOVUPS Y4, (DI)
	VMOVUPS Y3, (DX)
	VMOVUPS Y1, (BX)
	SUMS(blockSummed)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  updateBlock

updatePartial:
	TESTQ R8, R8
	JZ   updateDone
	VMOVQ R8, X2
	VPBROADCASTD X2, Y2
	VPCMPGTD laneIndex<>(SB), Y2, Y2
	VMOVUPS Y2, 0(SP)
	VMASKMOVPS (BX), Y2, Y0
	VMASKMOVPS (DX), Y2, Y1
	VMASKMOVPS (SI), Y2, Y5
	UPDATE
	VMOVUPS 0(SP), Y2
	VMASKMOVPS Y4, Y2, (DI)
	VMASKMOVPS Y3, Y2, (DX)
	VMASKMOVPS Y1, Y2, (BX)
	VANDPS Y2, Y1, Y1
	VANDPS Y2, Y4, Y4
	VANDPS Y2, Y5, Y5
	SUMS(partialSummed)

updateDone:
	HMAX(Y7, X7)
	VMOVSS X7, maxA+112(FP)
	HMAX(Y6, X6)
	VMOVSS X6, maxD+116(FP)
	HSUM(Y8, X8)
	VMOVSS X8, ip+120(FP)
	HSUM(Y10, X10)
	VMOVSS X10, ipAbs+124(FP)
	HSUM(Y11, X11)
	VMOVSS X11, sa+128(FP)
	HSUM(Y12, X12)
	VMOVSS X12, sd+132(FP)
	VZEROUPPER
	RET
