//go:build !amd64

package wavelet

func analyze8(a, d, x, h, g []float32, blocks int) {
	panic("wavelet: AVX2 kernel called without AVX2")
}

func synthesize8(dst, a, d, h, g []float32, blocks int) {
	panic("wavelet: AVX2 kernel called without AVX2")
}
