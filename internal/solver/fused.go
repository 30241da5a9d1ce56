package solver

import (
	"math"

	"csecg/internal/linalg"
)

// fistaPass is what one FISTA update pass reports besides the vectors it
// writes: the two decisions fista takes from it.
type fistaPass struct {
	// Restart reports (y_k − α_k)ᵀ(α_k − α_{k−1}) > 0, the inner product
	// summed in index order: the momentum points uphill (O'Donoghue &
	// Candès 2015).
	Restart bool
	// Stop reports stopped(‖α_k‖₂, ‖α_k − α_{k−1}‖₂, tol), with both
	// norms bit for bit equal to linalg.Norm2 and linalg.DistNorm2; it
	// is false when tol < 0.
	Stop bool
	// RestartOrdered and StopOrdered report that the AVX2 pass could not
	// certify that decision from its lane sums and ran the ordered sums
	// for it. The Go loop always sums in order and sets neither.
	RestartOrdered, StopOrdered bool
}

// fistaStepFused is FISTA's update: one pass over the coefficients
// that, for each i,
//
//   - doubles the half-gradient h = Aᵀ(Ay_k − y) into ∇f(y_k) = h + h,
//   - takes the step y_k − ∇f/L and shrinks it with
//     linalg.ShrinkBranchless into α_k,
//   - writes y_{k+1} = α_k + β(α_k − α_{k−1}) over y_k,
//   - accumulates the restart product from the y_k it just read, and
//   - takes the max-abs of α_k and of α_k − α_{k−1}.
//
// It returns the restart and stopping decisions. The stopping rule's
// norms are scaled sums of squares: each sum runs in index order with
// one accumulator and divides by its max, exactly as linalg.Norm2 does,
// so the rule decides as it would on linalg.Norm2 and
// linalg.DistNorm2. A negative tol disables the rule, and then no norm
// is formed.
//
// float32 runs on the AVX2 kernels where linalg.HasAVX2 reports true
// (fistaStepAVX2); every other element type and CPU runs fistaStepLoop.
// Both write the same bits and take the same decisions. half is
// scratch: the kernel path leaves the restart products in it.
func fistaStepFused[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, tol float64) fistaPass {
	if a32, ok := any(alpha).([]float32); ok && linalg.HasAVX2() {
		return fistaStepAVX2(a32, any(alphaPrev).([]float32), any(yk).([]float32), any(half).([]float32),
			float32(step), float32(thr), float32(beta), tol)
	}
	return fistaStepLoop(alpha, alphaPrev, yk, half, step, thr, beta, tol)
}

// fistaStepLoop is fistaStepFused in Go, one coefficient at a time. It
// leaves half unchanged.
func fistaStepLoop[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, tol float64) fistaPass {
	n := len(alpha)
	alphaPrev, yk, half = alphaPrev[:n], yk[:n], half[:n]
	var ip, maxA, maxD T
	for i, y := range yk {
		a := linalg.ShrinkBranchless(y-step*(half[i]+half[i]), thr)
		d := a - alphaPrev[i]
		ip += (y - a) * d
		yk[i] = a + beta*d
		alpha[i] = a
		maxA = maxAbs(maxA, a)
		maxD = maxAbs(maxD, d)
	}
	pass := fistaPass{Restart: ip > 0}
	if tol >= 0 {
		normA, normD := stopNorms(alpha, alphaPrev, maxA, maxD)
		pass.Stop = stopped(normA, normD, tol)
	}
	return pass
}

// The lane sums of fistaUpdate8 add the same float32 terms as an
// ordered sum, or nearly the same, in another order, so they tell the
// ordered sum only to within a rounding error bound. With u = 2⁻²⁴ and
// γ_k = k·u/(1 − k·u), a float32 sum of n terms in any order whose
// addition tree has depth k is within γ_k·Σ|x_i| of the exact sum
// (Higham, Accuracy and Stability of Numerical Algorithms, §4.2). The
// ordered sum has depth n and a lane sum ⌈n/8⌉ + 3. So:
//
//   - the restart sum ip and its lane sum P differ by at most
//     (γ_n + γ_{n/8+4})/(1 − γ_{n/8+4}) times the lane sum A of the
//     magnitudes;
//   - the ordered scaled sum s = Σ(a_i/m)², m the max-abs, and the
//     lane sum S of the squares a_i² differ, relative to S/m², by at
//     most (1+u)³(1+γ_n)/((1−u)(1−γ_{n/8+4})) − 1: each quotient and
//     square rounds once more than its lane twin. s ≥ 1, since its
//     largest term is exactly 1, and S ≥ 2⁻¹⁰⁰ is required, so the
//     absolute error of squares and quotients that underflow is below
//     2⁻³⁷ of either sum and is covered too.
//
// For n ≤ laneSumMaxLen both bounds are below 2⁻¹¹·⁸, under laneSlack
// with room for the float64 arithmetic that applies it.
const (
	laneSlack     = 0x1p-10
	laneSumMaxLen = 4096
)

// fistaStepAVX2 is fistaStepFused on the AVX2 kernel of fused_amd64.s.
// fistaUpdate8 runs the update 8 lanes at a time, writes each
// coefficient's restart product over half, which the next gradient
// evaluation overwrites anyway, and returns lane sums of the restart
// products and, with tol ≥ 0, of the squares of α_k and d. Each
// decision is taken from the lane sums when the error bound above
// certifies it: restart when the lane sum is farther than laneSlack
// times the magnitude sum from zero, stop when stopped, which is
// monotone in both norms, agrees at both ends of the norms' bounded
// intervals. Otherwise, and when a sum is zero, non-finite or out of
// range, the decision runs the ordered sums of fistaStepLoop, so it is
// always fistaStepLoop's decision. The decisions read no NaN payload,
// so the ordered sums may run in Go. Only call it where linalg.HasAVX2
// reports true.
func fistaStepAVX2(alpha, alphaPrev, yk, half []float32, step, thr, beta float32, tol float64) fistaPass {
	n := len(alpha)
	alphaPrev, yk, half = alphaPrev[:n], yk[:n], half[:n]
	maxA, maxD, ip, ipAbs, sa, sd := fistaUpdate8(alpha, alphaPrev, yk, half, step, thr, beta, tol >= 0)
	bounded := n <= laneSumMaxLen
	var pass fistaPass
	var ok bool
	if pass.Restart, ok = restartFromLanes(ip, ipAbs); !ok || !bounded {
		var sum float32
		for _, p := range half {
			sum += p
		}
		pass.Restart, pass.RestartOrdered = sum > 0, true
	}
	if tol < 0 {
		return pass
	}
	if pass.Stop, ok = stopFromLanes(maxA, maxD, sa, sd, tol); !ok || !bounded {
		normA, normD := stopNorms(alpha, alphaPrev, maxA, maxD)
		pass.Stop, pass.StopOrdered = stopped(normA, normD, tol), true
	}
	return pass
}

// restartFromLanes decides ip > 0 for the ordered restart sum ip from
// its lane sum p and the lane sum pAbs of the magnitudes, and reports
// whether the error bound certifies the decision. pAbs ≤ 2¹²⁷ also
// keeps every partial ordered sum finite.
func restartFromLanes(p, pAbs float32) (restart, ok bool) {
	if !(pAbs <= 0x1p127) {
		return false, false
	}
	slack := laneSlack * float64(pAbs)
	switch {
	case float64(p) > slack:
		return true, true
	case float64(p) < -slack:
		return false, true
	}
	return false, false
}

// stopFromLanes decides the stopping rule from the max-abs values and
// the lane sums of squares of α_k and d, and reports whether the error
// bound certifies the decision.
func stopFromLanes(maxA, maxD, sa, sd float32, tol float64) (stop, ok bool) {
	normLo, normHi, okA := normBounds(maxA, sa)
	stepLo, stepHi, okD := normBounds(maxD, sd)
	switch {
	case !okA || !okD:
		return false, false
	case stopped(normLo, stepHi, tol):
		return true, true
	case !stopped(normHi, stepLo, tol):
		return false, true
	}
	return false, false
}

// normBounds bounds scaledNorm(m, s), where s is the ordered scaled sum
// of squares whose unscaled lane sum is lane, and reports whether it
// could. scaledNorm is nondecreasing in s and float32 conversion
// rounds monotonically, so bounds on s give bounds on the norm. A zero
// max gives the exact norm 0.
func normBounds(m, lane float32) (lo, hi float32, ok bool) {
	if m == 0 {
		return 0, 0, true
	}
	if !(lane >= 0x1p-100 && lane <= math.MaxFloat32) {
		return 0, 0, false
	}
	m64 := float64(m)
	s := float64(lane) / (m64 * m64)
	return scaledNorm(m, float32(s*(1-laneSlack))), scaledNorm(m, float32(s*(1+laneSlack))), true
}

// stopNorms finishes ‖a‖₂ and ‖a − b‖₂ from their max-abs values in one
// pass.
func stopNorms[T linalg.Float](a, b []T, maxA, maxD T) (normA, normD T) {
	b = b[:len(a)]
	da, dd := normScale(maxA), normScale(maxD)
	var sa, sd T
	for i := range a {
		ra := a[i] / da
		sa += ra * ra
		rd := (a[i] - b[i]) / dd
		sd += rd * rd
	}
	return scaledNorm(maxA, sa), scaledNorm(maxD, sd)
}

// normScale is the divisor of a scaled sum of squares: the max-abs m,
// or 1 when m is zero, which keeps the sum finite without a branch in
// the loop.
func normScale[T linalg.Float](m T) T {
	if m == 0 {
		return 1
	}
	return m
}

// scaledNorm is m·√s, the norm whose max-abs is m and whose sum of
// squares scaled by m is s; a zero max short-circuits to zero as in
// linalg.Norm2.
func scaledNorm[T linalg.Float](m, s T) T {
	if m == 0 {
		return 0
	}
	return m * T(math.Sqrt(float64(s)))
}

// maxAbs folds |v| into the running maximum m with linalg.Norm2's
// comparison, so the result is the same in any lane order.
func maxAbs[T linalg.Float](m, v T) T {
	if v < 0 {
		v = -v
	}
	if v > m {
		return v
	}
	return m
}

// stopped is the relative-step stopping rule
// ‖α_k − α_{k−1}‖₂ / max(1, ‖α_k‖₂) < tol; a negative tol disables it.
func stopped[T linalg.Float](norm, step T, tol float64) bool {
	if tol < 0 {
		return false
	}
	den := float64(norm)
	if den < 1 {
		den = 1
	}
	return float64(step)/den < tol
}
