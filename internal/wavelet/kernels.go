package wavelet

import "csecg/internal/linalg"

// The AVX2 kernels (kernels_amd64.s) compute analyzeSplit's outputs and
// synthesizeSplit's unwrapped output pairs 8 per vector when the
// element type is float32, linalg.HasAVX2 reports true and a level has
// at least 8 of them; everything else, and synthesizeSplit's wrapped
// head, runs the Go loops. Each kernel lane keeps the Go loop's tap
// order, so the dispatch never changes a bit. A level whose count is
// not a multiple of 8 ends with one overlapping block: the last 8
// outputs, some of which the block before already wrote, recomputed to
// the same bits. The kernels step through the filters a tap pair at a
// time, so they take even filter lengths only (every Daubechies filter
// has 2·order taps).

// analyzeKernel computes all of analyzeSplit's outputs on the kernel,
// where it applies, and returns how many it computed: len(dst)/2 or 0.
// x is the periodically extended block, len(dst)+len(h)−2 samples.
func analyzeKernel[T linalg.Float](dst, x, h, g []T) int {
	dst32, ok := any(dst).([]float32)
	half := len(dst) / 2
	if !ok || !linalg.HasAVX2() || half < 8 || len(h)%2 != 0 {
		return 0
	}
	a, d, x32 := dst32[:half], dst32[half:2*half], any(x).([]float32)[:2*half+len(h)-2]
	h32, g32 := any(h).([]float32), any(g).([]float32)
	analyze8(a, d, x32, h32, g32, half/8)
	if last := half - 8; half%8 != 0 {
		analyze8(a[last:], d[last:], x32[2*last:], h32, g32, 1)
	}
	return half
}

// synthesizeKernel computes synthesizeSplit's output pairs p0 ≤ p <
// len(a) on the kernel, where it applies, and returns how many pairs it
// computed: len(a)−p0 or 0. p0 is the first pair whose inputs do not
// wrap.
func synthesizeKernel[T linalg.Float](dst, a, d, h, g []T, p0 int) int {
	dst32, ok := any(dst).([]float32)
	half, hp := len(a), len(h)/2
	pairs := half - p0
	if !ok || !linalg.HasAVX2() || pairs < 8 || len(h)%2 != 0 {
		return 0
	}
	dst32 = dst32[:2*half]
	a32, d32 := any(a).([]float32), any(d).([]float32)[:half]
	h32, g32 := any(h).([]float32), any(g).([]float32)
	first := p0 - hp + 1
	synthesize8(dst32[2*p0:], a32[first:], d32[first:], h32, g32, pairs/8)
	if last := half - 8; pairs%8 != 0 {
		synthesize8(dst32[2*last:], a32[last-hp+1:], d32[last-hp+1:], h32, g32, 1)
	}
	return pairs
}
