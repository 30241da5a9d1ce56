#include "textflag.h"

// The two passes of fistaStepFused's AVX2 path (fistaStepAVX2 in
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

// UPDATE is the update of one block from h in Y0, y_k in Y1 and α_{k−1}
// in Y5. It leaves α_k in Y4, y_{k+1} in Y3 and the restart product in
// Y1, and folds |α_k| and |d| into the lane maxima Y7 and Y6.
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
	VCMPPS $0x11, Y8, Y0, Y2; \
	VXORPS Y10, Y0, Y3; \
	VBLENDVPS Y2, Y3, Y0, Y3; \
	VSUBPS Y14, Y3, Y3; \
	VCMPPS $0x1E, Y8, Y3, Y4; \
	VANDPS Y12, Y4, Y4; \
	VMULPS Y3, Y4, Y3; \
	VCMPPS $0x1E, Y8, Y0, Y4; \
	VANDPS Y12, Y4, Y4; \
	VBLENDVPS Y2, Y11, Y4, Y4; \
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

// func fistaUpdate8(alpha, alphaPrev, yk, half []float32, step, thr, beta float32) (maxA, maxD float32)
//
// Registers: DI alpha, SI alphaPrev, DX yk, BX half, CX full blocks
// left, R8 lanes of the partial block, Y0–Y5 as in UPDATE, Y2 also the
// partial block's mask (kept at 0(SP) across UPDATE), Y6/Y7 lane maxima
// of |d| and |a|, Y8 +0, Y9 abs mask, Y10 sign mask, Y11 −1, Y12 1,
// Y13 beta, Y14 thr, Y15 step.
TEXT ·fistaUpdate8(SB), NOSPLIT, $32-120
	MOVQ alpha_base+0(FP), DI
	MOVQ alpha_len+8(FP), CX
	MOVQ alphaPrev_base+24(FP), SI
	MOVQ yk_base+48(FP), DX
	MOVQ half_base+72(FP), BX
	VBROADCASTSS step+96(FP), Y15
	VBROADCASTSS thr+100(FP), Y14
	VBROADCASTSS beta+104(FP), Y13
	MOVL $0x3f800000, AX
	VMOVD AX, X12
	VBROADCASTSS X12, Y12
	MOVL $0xbf800000, AX
	VMOVD AX, X11
	VBROADCASTSS X11, Y11
	MOVL $0x80000000, AX
	VMOVD AX, X10
	VBROADCASTSS X10, Y10
	MOVL $0x7fffffff, AX
	VMOVD AX, X9
	VBROADCASTSS X9, Y9
	VXORPS Y8, Y8, Y8
	VXORPS Y7, Y7, Y7
	VXORPS Y6, Y6, Y6
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

updateDone:
	VEXTRACTF128 $1, Y7, X0
	VMAXPS X0, X7, X7
	VMOVHLPS X7, X7, X0
	VMAXPS X0, X7, X7
	VMOVSHDUP X7, X0
	VMAXSS X0, X7, X7
	VMOVSS X7, maxA+112(FP)
	VEXTRACTF128 $1, Y6, X0
	VMAXPS X0, X6, X6
	VMOVHLPS X6, X6, X0
	VMAXPS X0, X6, X6
	VMOVSHDUP X6, X0
	VMAXSS X0, X6, X6
	VMOVSS X6, maxD+116(FP)
	VZEROUPPER
	RET

// func fistaSums8(alpha, alphaPrev, prod []float32, da, dd float32) (ip, sa, sd float32)
//
// Three scalar chains from +0 in index order: ip = prod + ip,
// sa = sa + (a/da)², sd = sd + ((a−b)/dd)². A block forms its quotients
// and squares with VDIVPS and VMULPS and parks the squares in the
// frame; the chains then take one VADDSS per coefficient each, so every
// sum is the Go loop's ordered scalar sum.
//
// Registers: DI alpha, SI alphaPrev, BX prod, CX coefficients left, R8
// lanes of this block, AX lane, X0 ip, X1 sa, X2 sd, Y3 a then
// (a/da)², Y4 b, a − b then ((a−b)/dd)², X5 the loaded product, Y6 the
// block's lane mask, Y14 dd, Y15 da; the frame holds (a/da)² at 0(SP)
// and ((a−b)/dd)² at 32(SP).
TEXT ·fistaSums8(SB), NOSPLIT, $64-92
	MOVQ alpha_base+0(FP), DI
	MOVQ alpha_len+8(FP), CX
	MOVQ alphaPrev_base+24(FP), SI
	MOVQ prod_base+48(FP), BX
	VBROADCASTSS da+72(FP), Y15
	VBROADCASTSS dd+76(FP), Y14
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	TESTQ CX, CX
	JZ   sumsDone

sumsBlock:
	MOVQ $8, R8
	CMPQ CX, R8
	CMOVQLT CX, R8
	VMOVQ R8, X6
	VPBROADCASTD X6, Y6
	VPCMPGTD laneIndex<>(SB), Y6, Y6
	VMASKMOVPS (DI), Y6, Y3
	VMASKMOVPS (SI), Y6, Y4
	VSUBPS Y4, Y3, Y4
	VDIVPS Y15, Y3, Y3
	VMULPS Y3, Y3, Y3
	VDIVPS Y14, Y4, Y4
	VMULPS Y4, Y4, Y4
	VMOVUPS Y3, 0(SP)
	VMOVUPS Y4, 32(SP)
	XORQ AX, AX

sumsLane:
	VMOVSS (BX)(AX*4), X5
	VADDSS X0, X5, X0
	VADDSS 0(SP)(AX*4), X1, X1
	VADDSS 32(SP)(AX*4), X2, X2
	INCQ AX
	CMPQ AX, R8
	JLT  sumsLane

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	SUBQ R8, CX
	JNZ  sumsBlock

sumsDone:
	VMOVSS X0, ip+80(FP)
	VMOVSS X1, sa+84(FP)
	VMOVSS X2, sd+88(FP)
	VZEROUPPER
	RET
