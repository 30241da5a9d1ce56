//go:build !amd64

package solver

func fistaUpdate8(alpha, alphaPrev, yk, half []float32, step, thr, beta float32) (maxA, maxD float32) {
	panic("solver: AVX2 kernel called without AVX2")
}

func fistaSums8(alpha, alphaPrev, prod []float32, da, dd float32) (ip, sa, sd float32) {
	panic("solver: AVX2 kernel called without AVX2")
}
