#include "textflag.h"

// Both kernels compute 8 outputs per vector, one output per lane, and
// keep the scalar code's tap order in every lane: products and sums
// round one at a time (no FMA), so each lane equals the Go loop bit for
// bit. Each loop iteration runs two independent 8-output blocks, so
// two add chains per sum are in flight and the 4-cycle VADDPS latency
// is hidden; an odd last block runs alone. Float32 only; the wrapped
// synthesis head stays in Go.

// ANALYZE_TAP adds tap i of one block: the even entries of the pair
// (in \ev), the odd ones (in \od), h[i] and g[i] in Y8/Y9, h[i+1] and
// g[i+1] in Y10/Y11, into the approximation sum \sa and the detail sum
// \sd, with \t0/\t1 as product scratch.
#define ANALYZE_TAP(ev, od, sa, sd, t0, t1) \
	VMULPS ev, Y8, t0; \
	VADDPS t0, sa, sa; \
	VMULPS ev, Y9, t1; \
	VADDPS t1, sd, sd; \
	VMULPS od, Y10, t0; \
	VADDPS t0, sa, sa; \
	VMULPS od, Y11, t1; \
	VADDPS t1, sd, sd

// func analyze8(a, d, x, h, g []float32, blocks int)
//
// Block b computes a[8b+l] = Σ_i h[i]·x[16b+2l+i] and d[8b+l] likewise
// with g, accumulating from +0 in ascending i. A tap pair (i, i+1) loads
// x[16b+i : 16b+i+16] once; VSHUFPS picks its even entries (tap i of the
// 8 outputs) and its odd entries (tap i+1), each in lane order
// 0 1 4 5 2 3 6 7. The lanes stay in that order through the sums and
// VPERMPD $0xD8 restores 0…7 before the store.
//
// Registers: DI a, BX d, SI x, R8 h, R9 g, CX blocks left, DX taps,
// R10 tap offset, Y0/Y1 the approximation/detail sums of the first
// block and Y6/Y7 of the second, Y2/Y3 and Y12/Y13 the loaded pairs
// (then product scratch), Y4/Y5 and Y14/Y15 their even/odd taps, Y8–Y11
// the broadcast coefficients h[i], g[i], h[i+1], g[i+1].
TEXT ·analyze8(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), DI
	MOVQ d_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ h_base+72(FP), R8
	MOVQ h_len+80(FP), DX
	MOVQ g_base+96(FP), R9
	MOVQ blocks+120(FP), CX
	CMPQ CX, $2
	JLT  analyzeOne

analyzeTwo:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ R10, R10

analyzeTwoPair:
	VMOVUPS (SI)(R10*4), Y2
	VMOVUPS 32(SI)(R10*4), Y3
	VMOVUPS 64(SI)(R10*4), Y12
	VMOVUPS 96(SI)(R10*4), Y13
	VSHUFPS $0x88, Y3, Y2, Y4
	VSHUFPS $0xDD, Y3, Y2, Y5
	VSHUFPS $0x88, Y13, Y12, Y14
	VSHUFPS $0xDD, Y13, Y12, Y15
	VBROADCASTSS (R8)(R10*4), Y8
	VBROADCASTSS (R9)(R10*4), Y9
	VBROADCASTSS 4(R8)(R10*4), Y10
	VBROADCASTSS 4(R9)(R10*4), Y11
	ANALYZE_TAP(Y4, Y5, Y0, Y1, Y2, Y3)
	ANALYZE_TAP(Y14, Y15, Y6, Y7, Y12, Y13)
	ADDQ $2, R10
	CMPQ R10, DX
	JLT  analyzeTwoPair

	VPERMPD $0xD8, Y0, Y0
	VPERMPD $0xD8, Y1, Y1
	VPERMPD $0xD8, Y6, Y6
	VPERMPD $0xD8, Y7, Y7
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (BX)
	VMOVUPS Y6, 32(DI)
	VMOVUPS Y7, 32(BX)
	ADDQ $64, DI
	ADDQ $64, BX
	ADDQ $128, SI
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  analyzeTwo

analyzeOne:
	TESTQ CX, CX
	JZ   analyzeDone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ R10, R10

analyzeOnePair:
	VMOVUPS (SI)(R10*4), Y2
	VMOVUPS 32(SI)(R10*4), Y3
	VSHUFPS $0x88, Y3, Y2, Y4
	VSHUFPS $0xDD, Y3, Y2, Y5
	VBROADCASTSS (R8)(R10*4), Y8
	VBROADCASTSS (R9)(R10*4), Y9
	VBROADCASTSS 4(R8)(R10*4), Y10
	VBROADCASTSS 4(R9)(R10*4), Y11
	ANALYZE_TAP(Y4, Y5, Y0, Y1, Y2, Y3)
	ADDQ $2, R10
	CMPQ R10, DX
	JLT  analyzeOnePair

	VPERMPD $0xD8, Y0, Y0
	VPERMPD $0xD8, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (BX)

analyzeDone:
	VZEROUPPER
	RET

// SYNTH_TAP adds term q of one block: a[8b+l+q] in \av and d[8b+l+q]
// in \dv, with h[ie], g[ie], h[ie+1], g[ie+1] in Y8–Y11, into the even
// sum \se and the odd sum \so, with Y4–Y7 as product scratch.
#define SYNTH_TAP(av, dv, se, so) \
	VMULPS av, Y8, Y4; \
	VMULPS dv, Y9, Y5; \
	VADDPS Y5, Y4, Y4; \
	VADDPS Y4, se, se; \
	VMULPS av, Y10, Y6; \
	VMULPS dv, Y11, Y7; \
	VADDPS Y7, Y6, Y6; \
	VADDPS Y6, so, so

// SYNTH_STORE interleaves the even sums \se and the odd sums \so into
// 16 consecutive outputs at off(DI), with Y2–Y5 as scratch.
#define SYNTH_STORE(se, so, off) \
	VUNPCKLPS so, se, Y2; \
	VUNPCKHPS so, se, Y3; \
	VPERM2F128 $0x20, Y3, Y2, Y4; \
	VPERM2F128 $0x31, Y3, Y2, Y5; \
	VMOVUPS Y4, off(DI); \
	VMOVUPS Y5, off+32(DI)

// func synthesize8(dst, a, d, h, g []float32, blocks int)
//
// Block b computes the output pairs dst[16b+2l] (even) and
// dst[16b+2l+1] (odd) for l = 0…7: with hp = len(h)/2 and
// ie = len(h)−2−2q, even += h[ie]·a[8b+l+q] + g[ie]·d[8b+l+q] and odd
// likewise with ie+1, for q = 0…hp−1 from +0, each pair of products
// summed before it is added, as synthesizeSplit's scalar loop does.
// VUNPCKLPS/VUNPCKHPS and VPERM2F128 interleave the even and odd sums
// into 16 consecutive outputs.
//
// Registers: DI dst, SI a, BX d, R8 h, R9 g, CX blocks left, DX taps,
// R10 q, R11 ie, Y0/Y1 the even/odd sums of the first block and
// Y14/Y15 of the second, Y2/Y3 and Y12/Y13 their a and d terms, Y4–Y7
// products, Y8–Y11 broadcast coefficients.
TEXT ·synthesize8(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ d_base+48(FP), BX
	MOVQ h_base+72(FP), R8
	MOVQ h_len+80(FP), DX
	MOVQ g_base+96(FP), R9
	MOVQ blocks+120(FP), CX
	CMPQ CX, $2
	JLT  synthOne

synthTwo:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	XORQ R10, R10
	LEAQ -2(DX), R11

synthTwoTap:
	VMOVUPS (SI)(R10*4), Y2
	VMOVUPS (BX)(R10*4), Y3
	VMOVUPS 32(SI)(R10*4), Y12
	VMOVUPS 32(BX)(R10*4), Y13
	VBROADCASTSS (R8)(R11*4), Y8
	VBROADCASTSS (R9)(R11*4), Y9
	VBROADCASTSS 4(R8)(R11*4), Y10
	VBROADCASTSS 4(R9)(R11*4), Y11
	SYNTH_TAP(Y2, Y3, Y0, Y1)
	SYNTH_TAP(Y12, Y13, Y14, Y15)
	INCQ R10
	SUBQ $2, R11
	JGE  synthTwoTap

	SYNTH_STORE(Y0, Y1, 0)
	SYNTH_STORE(Y14, Y15, 64)
	ADDQ $128, DI
	ADDQ $64, SI
	ADDQ $64, BX
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  synthTwo

synthOne:
	TESTQ CX, CX
	JZ   synthDone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ R10, R10
	LEAQ -2(DX), R11

synthOneTap:
	VMOVUPS (SI)(R10*4), Y2
	VMOVUPS (BX)(R10*4), Y3
	VBROADCASTSS (R8)(R11*4), Y8
	VBROADCASTSS (R9)(R11*4), Y9
	VBROADCASTSS 4(R8)(R11*4), Y10
	VBROADCASTSS 4(R9)(R11*4), Y11
	SYNTH_TAP(Y2, Y3, Y0, Y1)
	INCQ R10
	SUBQ $2, R11
	JGE  synthOneTap

	SYNTH_STORE(Y0, Y1, 0)

synthDone:
	VZEROUPPER
	RET
