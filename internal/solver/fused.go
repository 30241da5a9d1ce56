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
// A second pass forms the two scaled sums of squares when norms is set.
// Each sum runs in index order with one accumulator and divides by its
// max, exactly as linalg.Norm2 does, so the stopping rule sees the same
// bits as linalg.Norm2 and linalg.DistNorm2 would give.
//
// float32 runs on the AVX2 kernels where linalg.HasAVX2 reports true
// (fistaStepAVX2); every other element type and CPU runs fistaStepLoop.
// Both compute the same bits. half is scratch: the kernel path leaves
// the restart products in it.
func fistaStepFused[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, norms bool) fistaPass[T] {
	if a32, ok := any(alpha).([]float32); ok && linalg.HasAVX2() {
		p := fistaStepAVX2(a32, any(alphaPrev).([]float32), any(yk).([]float32), any(half).([]float32),
			float32(step), float32(thr), float32(beta), norms)
		return fistaPass[T]{Restart: T(p.Restart), Norm: T(p.Norm), Step: T(p.Step)}
	}
	return fistaStepLoop(alpha, alphaPrev, yk, half, step, thr, beta, norms)
}

// fistaStepLoop is fistaStepFused in Go, one coefficient at a time. It
// leaves half unchanged.
func fistaStepLoop[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, norms bool) fistaPass[T] {
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

// fistaStepAVX2 is fistaStepFused on the AVX2 kernels of
// fused_amd64.s, in two passes. fistaUpdate8 runs the update 8 lanes at
// a time and writes each coefficient's restart product over half, which
// the next gradient evaluation overwrites anyway. Once both maxima are
// known, fistaSums8 runs the restart sum and the two sums of squares as
// three ordered scalar chains, so every reduction is fistaStepLoop's
// ordered sum and the result is its bits. The chains stay in assembly
// to the last coefficient: which operand of a commutative add the Go
// compiler puts first depends on the loop around it, and that decides
// which payload a NaN + NaN keeps. Only call it where linalg.HasAVX2
// reports true.
func fistaStepAVX2(alpha, alphaPrev, yk, half []float32, step, thr, beta float32, norms bool) fistaPass[float32] {
	n := len(alpha)
	alphaPrev, yk, half = alphaPrev[:n], yk[:n], half[:n]
	maxA, maxD := fistaUpdate8(alpha, alphaPrev, yk, half, step, thr, beta)
	ip, sa, sd := fistaSums8(alpha, alphaPrev, half, normScale(maxA), normScale(maxD))
	pass := fistaPass[float32]{Restart: ip}
	if norms {
		pass.Norm, pass.Step = scaledNorm(maxA, sa), scaledNorm(maxD, sd)
	}
	return pass
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
