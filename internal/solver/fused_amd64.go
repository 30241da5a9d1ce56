package solver

// fistaUpdate8 runs the update of fistaStepFused over all len(alpha)
// coefficients, 8 lanes at a time, with no bounds checks: it writes
// α_k, y_{k+1} over yk and the restart product (y_k − α_k)·d over half,
// and returns the max-abs of α_k and of d = α_k − α_{k−1} and the lane
// sums fistaStepAVX2 bounds its decisions with: of the restart products
// (ip), of their magnitudes (ipAbs) and, when norms is set, of α_k²
// (sa) and d² (sd), else 0. Each lane sum adds ⌈len(alpha)/8⌉ terms
// per lane from +0 and then the 8 lanes in a tree of depth 3; see
// fused_amd64.s.
//
//go:noescape
func fistaUpdate8(alpha, alphaPrev, yk, half []float32, step, thr, beta float32, norms bool) (maxA, maxD, ip, ipAbs, sa, sd float32)
