package solver

// fistaUpdate8 runs the update of fistaStepFused over all len(alpha)
// coefficients, 8 lanes at a time, with no bounds checks: it writes
// α_k, y_{k+1} over yk and the restart product (y_k − α_k)·d over half,
// and returns the max-abs of α_k and of d = α_k − α_{k−1}; see
// fused_amd64.s.
//
//go:noescape
func fistaUpdate8(alpha, alphaPrev, yk, half []float32, step, thr, beta float32) (maxA, maxD float32)

// fistaSums8 returns the restart sum of prod and the stopping rule's
// two sums of squares, of a/da and of (a−b)/dd, over all len(alpha)
// coefficients as ordered scalar sums from +0, with no bounds checks;
// see fused_amd64.s.
//
//go:noescape
func fistaSums8(alpha, alphaPrev, prod []float32, da, dd float32) (ip, sa, sd float32)
