#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Both gathers walk the layout group by group. Per step they load the 8
// lane indices, mask the −1 pads out (a lane gathers only where its
// index is greater than −1), gather into a zeroed register, so a masked
// lane holds +0, and add the loaded terms to the lane sums, which start
// at +0. No FMA is used: every product and sum rounds as the scalar
// float32 code does.
//
// Registers: DI dst, SI src, R8 idx, R9 steps, CX groups left, DX steps
// left, Y0 lane sums, Y1 indices, Y2 mask, Y3 gathered terms, Y6 all −1,
// Y7 scale.

// func gatherSum8(dst, src []float32, idx, steps []int32, groups int, scale float32)
TEXT ·gatherSum8(SB), NOSPLIT, $0-108
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ steps_base+72(FP), R9
	MOVQ groups+96(FP), CX
	VBROADCASTSS scale+104(FP), Y7
	VPCMPEQD Y6, Y6, Y6
	TESTQ CX, CX
	JZ   sumDone

sumGroup:
	MOVL (R9), DX
	VXORPS Y0, Y0, Y0
	TESTL DX, DX
	JZ   sumStore

sumStep:
	VMOVDQU (R8), Y1
	VPCMPGTD Y6, Y1, Y2
	VXORPS Y3, Y3, Y3
	VGATHERDPS Y2, (SI)(Y1*4), Y3
	VADDPS Y3, Y0, Y0
	ADDQ $32, R8
	DECL DX
	JNZ  sumStep

sumStore:
	VMULPS Y7, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, R9
	DECQ CX
	JNZ  sumGroup

sumDone:
	VZEROUPPER
	RET

// func gatherSumScaled8(dst, src []float32, idx, steps []int32, groups int, scale float32)
TEXT ·gatherSumScaled8(SB), NOSPLIT, $0-108
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ steps_base+72(FP), R9
	MOVQ groups+96(FP), CX
	VBROADCASTSS scale+104(FP), Y7
	VPCMPEQD Y6, Y6, Y6
	TESTQ CX, CX
	JZ   scaledDone

scaledGroup:
	MOVL (R9), DX
	VXORPS Y0, Y0, Y0
	TESTL DX, DX
	JZ   scaledStore

scaledStep:
	VMOVDQU (R8), Y1
	VPCMPGTD Y6, Y1, Y2
	VXORPS Y3, Y3, Y3
	VGATHERDPS Y2, (SI)(Y1*4), Y3
	VMULPS Y7, Y3, Y3
	VADDPS Y3, Y0, Y0
	ADDQ $32, R8
	DECL DX
	JNZ  scaledStep

scaledStore:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, R9
	DECQ CX
	JNZ  scaledGroup

scaledDone:
	VZEROUPPER
	RET
