package solver

import (
	"math"

	"csecg/internal/linalg"
)

// fistaPass is what one FISTA update pass reports besides the vectors it
// writes: the gradient-restart inner product and the two norms of the
// relative-step stopping rule.
type fistaPass[T linalg.Float] struct {
	// Restart is (y_k − α_k)ᵀ(α_k − α_{k−1}); a positive value means
	// the momentum points uphill (O'Donoghue & Candès 2015).
	Restart T
	// Norm is ‖α_k‖₂ and Step is ‖α_k − α_{k−1}‖₂, bit for bit equal to
	// linalg.Norm2 and linalg.DistNorm2. Both are zero when the pass ran
	// without norms.
	Norm, Step T
}

// fistaStepFused is the NEON-shaped FISTA update: one branch-free pass
// over the coefficients that, for each i,
//
//   - doubles the half-gradient h = Aᵀ(Ay_k − y) into ∇f(y_k) = h + h,
//   - takes the step y_k − ∇f/L and shrinks it branch-free into α_k,
//   - writes y_{k+1} = α_k + β(α_k − α_{k−1}) over y_k,
//   - accumulates the restart product from the y_k it just read, and
//   - takes the max-abs of α_k and of α_k − α_{k−1}.
//
// A second pass forms the two scaled sums of squares when norms is set.
// Each sum runs in index order with one accumulator and divides by its
// max, exactly as linalg.Norm2 does, so the stopping rule sees the same
// bits as the two-kernel form it replaces.
func fistaStepFused[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, norms bool) fistaPass[T] {
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
	pass := fistaPass[T]{Restart: ip}
	if norms {
		pass.Norm, pass.Step = stopNorms(alpha, alphaPrev, maxA, maxD)
	}
	return pass
}

// fistaStep is the VFP-shaped FISTA update: the same maths as
// fistaStepFused in separate loops with the branchy soft threshold. The
// step point u = y_k − ∇f/L lands in half, so y_k survives the
// shrinkage for the restart product and is overwritten by y_{k+1} only
// afterwards.
func fistaStep[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, norms bool) fistaPass[T] {
	for i, h := range half {
		half[i] = yk[i] - step*(h+h)
	}
	linalg.SoftThreshold(alpha, half, thr)
	var ip T
	for i, a := range alpha {
		d := a - alphaPrev[i]
		ip += (yk[i] - a) * d
		yk[i] = a + beta*d
	}
	pass := fistaPass[T]{Restart: ip}
	if norms {
		pass.Norm, pass.Step = linalg.Norm2(alpha), linalg.DistNorm2(alpha, alphaPrev)
	}
	return pass
}

// stopNorms finishes ‖a‖₂ and ‖a − b‖₂ from their max-abs values in one
// pass. A zero max short-circuits to zero as in linalg.Norm2; dividing
// by 1 instead keeps that lane's sum finite without a branch in the
// loop.
func stopNorms[T linalg.Float](a, b []T, maxA, maxD T) (normA, normD T) {
	b = b[:len(a)]
	da, dd := maxA, maxD
	if da == 0 {
		da = 1
	}
	if dd == 0 {
		dd = 1
	}
	var sa, sd T
	for i := range a {
		ra := a[i] / da
		sa += ra * ra
		rd := (a[i] - b[i]) / dd
		sd += rd * rd
	}
	if maxA != 0 {
		normA = maxA * T(math.Sqrt(float64(sa)))
	}
	if maxD != 0 {
		normD = maxD * T(math.Sqrt(float64(sd)))
	}
	return normA, normD
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
