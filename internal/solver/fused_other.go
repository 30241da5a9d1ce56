//go:build !amd64

package solver

func fistaUpdate8(alpha, alphaPrev, yk, half []float32, step, thr, beta float32, norms bool) (maxA, maxD, ip, ipAbs, sa, sd float32) {
	panic("solver: AVX2 kernel called without AVX2")
}
