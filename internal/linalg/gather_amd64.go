package linalg

// hasAVX2 needs CPUID leaf 1 to report AVX and OSXSAVE, XCR0 to show the
// OS saving XMM and YMM state (bits 1 and 2), and CPUID leaf 7 to report
// AVX2.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gatherSum8 runs Gather8.Sum over the layout's first groups 8-row
// groups, writing 8 outputs per group to dst, with no bounds checks.
//
//go:noescape
func gatherSum8(dst, src []float32, idx, steps []int32, groups int, scale float32)

// gatherSumScaled8 runs Gather8.SumScaled the same way.
//
//go:noescape
func gatherSumScaled8(dst, src []float32, idx, steps []int32, groups int, scale float32)
