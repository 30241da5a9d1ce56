package solver

import (
	"math"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/rng"
)

// bits returns the IEEE-754 encoding of v, so comparisons tell −0 from
// +0.
func bits[T linalg.Float](v T) uint64 {
	switch v := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(v))
	case float64:
		return math.Float64bits(v)
	}
	panic("unreachable")
}

// stepInputs draws a FISTA pass input of length n. α_{k−1} is itself a
// shrunk vector with forced +0 and −0 entries, so the pass meets zero
// coefficients, zero steps and signed zeros.
func stepInputs[T linalg.Float](n int, seed uint64, thr T) (alphaPrev, yk, half []T) {
	g := rng.New(seed)
	alphaPrev, yk, half = make([]T, n), make([]T, n), make([]T, n)
	for i := range yk {
		yk[i] = T(g.NormFloat64())
		half[i] = T(0.1 * g.NormFloat64())
		switch i % 4 {
		case 0:
			alphaPrev[i] = 0
		case 1:
			alphaPrev[i] = T(math.Copysign(0, -1))
		default:
			alphaPrev[i] = linalg.ShrinkBranchless(T(g.NormFloat64()), thr)
		}
	}
	return alphaPrev, yk, half
}

// fistaStep is the plain-loop reference for fistaStepFused: the same
// maths in separate loops with the branchy soft threshold. The step
// point u = y_k − ∇f/L lands in half, so y_k survives the shrinkage for
// the restart product and is overwritten by y_{k+1} only afterwards.
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

// checkStepNorms runs the fused pass and the plain-loop reference on
// one input and checks that their stopping values are linalg.Norm2(α_k)
// and linalg.DistNorm2(α_k, α_{k−1}) bit for bit, and that the two
// agree.
func checkStepNorms[T linalg.Float](t *testing.T, n int, thr T) {
	t.Helper()
	alphaPrev, yk, half := stepInputs(n, uint64(n)+7, thr)
	yk2, half2 := append([]T(nil), yk...), append([]T(nil), half...)
	alpha, alpha2 := make([]T, n), make([]T, n)
	const step, beta = 0.75, 0.6
	p := fistaStepFused(alpha, alphaPrev, yk, half, step, thr, beta, true)
	if got, want := p.Norm, linalg.Norm2(alpha); bits(got) != bits(want) {
		t.Errorf("%T n=%d thr=%v: fused ‖α‖ = %v, Norm2 = %v", thr, n, thr, got, want)
	}
	if got, want := p.Step, linalg.DistNorm2(alpha, alphaPrev); bits(got) != bits(want) {
		t.Errorf("%T n=%d thr=%v: fused ‖α−α_prev‖ = %v, DistNorm2 = %v", thr, n, thr, got, want)
	}
	q := fistaStep(alpha2, alphaPrev, yk2, half2, step, thr, beta, true)
	if bits(q.Norm) != bits(p.Norm) || bits(q.Step) != bits(p.Step) || q.Restart != p.Restart {
		t.Errorf("%T n=%d thr=%v: scalar pass %+v, fused %+v", thr, n, thr, q, p)
	}
	for i := range alpha {
		if alpha[i] != alpha2[i] || yk[i] != yk2[i] {
			t.Fatalf("%T n=%d thr=%v i=%d: scalar (α %v, y %v), fused (α %v, y %v)", thr, n, thr, i, alpha2[i], yk2[i], alpha[i], yk[i])
		}
	}
}

// TestFISTAStepNormsMatchKernels pins the fused pass's stopping values
// to the kernels the stopping rule is defined by, over empty, short and
// window-sized lengths. The large threshold shrinks α_k and α_{k−1} to ±0
// everywhere, so both norms take the zero-max path.
func TestFISTAStepNormsMatchKernels(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 64, 511, 512} {
		for _, thr := range []float64{0.5, 100} {
			checkStepNorms(t, n, thr)
			checkStepNorms(t, n, float32(thr))
		}
	}
}
