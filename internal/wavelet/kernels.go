package wavelet

import "csecg/internal/linalg"

// The AVX2 kernels (kernels_amd64.s) compute the flat interiors of
// analyzeSplit and synthesizeSplit 8 outputs per vector when the
// element type is float32 and linalg.HasAVX2 reports true; everything
// else, and the wrap-around heads and tails, runs the Go loops. Each
// kernel lane keeps the Go loop's tap order, so the dispatch never
// changes a bit. The kernels step through the filters a tap pair at a
// time, so they take even filter lengths only (every Daubechies filter
// has 2·order taps).

// analyzeKernel computes analyzeSplit's outputs k < 8·⌊flat/8⌋ (none
// of which wrap) on the kernel, where it applies, and returns how many
// it computed.
func analyzeKernel[T linalg.Float](dst, x, h, g []T, flat int) int {
	dst32, ok := any(dst).([]float32)
	blocks := flat / 8
	if !ok || !linalg.HasAVX2() || blocks == 0 || len(h)%2 != 0 {
		return 0
	}
	half := len(dst) / 2
	analyze8(dst32[:half], dst32[half:], any(x).([]float32), any(h).([]float32), any(g).([]float32), blocks)
	return 8 * blocks
}

// synthesizeKernel computes synthesizeSplit's output pairs p0 ≤ p <
// p0 + 8·⌊(half−p0)/8⌋ on the kernel, where it applies, and returns how
// many pairs it computed. p0 is the first pair whose inputs do not
// wrap.
func synthesizeKernel[T linalg.Float](dst, a, d, h, g []T, p0 int) int {
	dst32, ok := any(dst).([]float32)
	blocks := (len(a) - p0) / 8
	if !ok || !linalg.HasAVX2() || blocks <= 0 || len(h)%2 != 0 {
		return 0
	}
	first := p0 - len(h)/2 + 1
	synthesize8(dst32[2*p0:], any(a).([]float32)[first:], any(d).([]float32)[first:], any(h).([]float32), any(g).([]float32), blocks)
	return 8 * blocks
}
