#include "textflag.h"

// Both kernels compute 8 outputs per vector, one output per lane, and
// keep the scalar code's tap order in every lane: products and sums
// round one at a time (no FMA), so each lane equals the Go loop bit for
// bit. Float32 only; the wrap-around heads and tails stay in Go.

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
// R10 tap offset, Y0/Y1 approximation/detail sums, Y2/Y3 the loaded
// pair, Y4/Y5 even/odd taps, Y8 broadcast coefficient, Y9 product.
TEXT ·analyze8(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), DI
	MOVQ d_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ h_base+72(FP), R8
	MOVQ h_len+80(FP), DX
	MOVQ g_base+96(FP), R9
	MOVQ blocks+120(FP), CX
	TESTQ CX, CX
	JZ   analyzeDone

analyzeBlock:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ R10, R10

analyzePair:
	VMOVUPS (SI)(R10*4), Y2
	VMOVUPS 32(SI)(R10*4), Y3
	VSHUFPS $0x88, Y3, Y2, Y4
	VSHUFPS $0xDD, Y3, Y2, Y5
	VBROADCASTSS (R8)(R10*4), Y8
	VMULPS Y4, Y8, Y9
	VADDPS Y9, Y0, Y0
	VBROADCASTSS (R9)(R10*4), Y8
	VMULPS Y4, Y8, Y9
	VADDPS Y9, Y1, Y1
	VBROADCASTSS 4(R8)(R10*4), Y8
	VMULPS Y5, Y8, Y9
	VADDPS Y9, Y0, Y0
	VBROADCASTSS 4(R9)(R10*4), Y8
	VMULPS Y5, Y8, Y9
	VADDPS Y9, Y1, Y1
	ADDQ $2, R10
	CMPQ R10, DX
	JLT  analyzePair

	VPERMPD $0xD8, Y0, Y0
	VPERMPD $0xD8, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (BX)
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $64, SI
	DECQ CX
	JNZ  analyzeBlock

analyzeDone:
	VZEROUPPER
	RET

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
// R10 q, R11 ie, Y0/Y1 even/odd sums, Y2/Y3 a and d terms, Y4–Y7
// products, Y8–Y11 broadcast coefficients.
TEXT ·synthesize8(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ d_base+48(FP), BX
	MOVQ h_base+72(FP), R8
	MOVQ h_len+80(FP), DX
	MOVQ g_base+96(FP), R9
	MOVQ blocks+120(FP), CX
	TESTQ CX, CX
	JZ   synthDone

synthBlock:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ R10, R10
	LEAQ -2(DX), R11

synthTap:
	VMOVUPS (SI)(R10*4), Y2
	VMOVUPS (BX)(R10*4), Y3
	VBROADCASTSS (R8)(R11*4), Y8
	VBROADCASTSS (R9)(R11*4), Y9
	VBROADCASTSS 4(R8)(R11*4), Y10
	VBROADCASTSS 4(R9)(R11*4), Y11
	VMULPS Y2, Y8, Y4
	VMULPS Y3, Y9, Y5
	VADDPS Y5, Y4, Y4
	VADDPS Y4, Y0, Y0
	VMULPS Y2, Y10, Y6
	VMULPS Y3, Y11, Y7
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y1, Y1
	INCQ R10
	SUBQ $2, R11
	JGE  synthTap

	VUNPCKLPS Y1, Y0, Y2
	VUNPCKHPS Y1, Y0, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ $64, DI
	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  synthBlock

synthDone:
	VZEROUPPER
	RET
