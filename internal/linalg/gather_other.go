//go:build !amd64

package linalg

const hasAVX2 = false

func gatherSum8(dst, src []float32, idx, steps []int32, groups int, scale float32) {
	panic("linalg: AVX2 gather kernel called without AVX2")
}

func gatherSumScaled8(dst, src []float32, idx, steps []int32, groups int, scale float32) {
	panic("linalg: AVX2 gather kernel called without AVX2")
}
