package experiments

import (
	"math"
	"testing"

	"csecg/internal/core"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

// plainFISTA is the decoder's FISTA without adaptive restart (Beck &
// Teboulle's constant-step loop with the relative-step stopping rule),
// kept as the reference the restart is measured against.
func plainFISTA[T linalg.Float](a linalg.Op[T], y, x0 []T, lambda, lip T, maxIter int, tol float64) (x []T, iters int) {
	n := a.InDim
	alpha, alphaPrev, yk, grad := make([]T, n), make([]T, n), make([]T, n), make([]T, n)
	r := make([]T, a.OutDim)
	if x0 != nil {
		copy(alphaPrev, x0)
		copy(yk, x0)
	}
	tk := T(1)
	for k := 1; k <= maxIter; k++ {
		a.Apply(r, yk)
		linalg.Sub(r, r, y)
		a.ApplyT(grad, r)
		linalg.Scale(2, grad)
		linalg.Axpy(-1/lip, grad, yk)
		linalg.SoftThreshold(alpha, yk, lambda/lip)
		tNext := (1 + T(math.Sqrt(float64(1+4*tk*tk)))) / 2
		beta := (tk - 1) / tNext
		for i := range yk {
			yk[i] = alpha[i] + beta*(alpha[i]-alphaPrev[i])
		}
		tk = tNext
		iters = k
		den := math.Max(1, float64(linalg.Norm2(alpha)))
		if tol >= 0 && float64(linalg.DistNorm2(alpha, alphaPrev))/den < tol {
			return alpha, iters
		}
		alpha, alphaPrev = alphaPrev, alpha
	}
	return alphaPrev, iters
}

// l1Objective is F(α) = ‖Aα − y‖₂² + λ‖α‖₁.
func l1Objective[T linalg.Float](a linalg.Op[T], y, x []T, lambda T) float64 {
	r := make([]T, a.OutDim)
	a.Apply(r, x)
	linalg.Sub(r, r, y)
	n := float64(linalg.Norm2(r))
	return n*n + float64(lambda)*float64(linalg.Norm1(x))
}

// TestRestartObjectiveBelowPlainAt400 runs the §II-B window for a fixed
// 400 iterations: adaptive restart must end below plain FISTA's
// objective. Equality would mean the restart never fired; on this
// window it cuts the gap to F* from about 0.7 to about 0.01.
func TestRestartObjectiveBelowPlainAt400(t *testing.T) {
	pr, err := convergenceWindow(Options{Records: []string{"100"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	const k = 400
	res, err := solver.FISTA(pr.a, pr.y, solver.Options[float64]{MaxIter: k, Tol: -1, Lambda: pr.lambda, Lipschitz: pr.lip})
	if err != nil {
		t.Fatal(err)
	}
	plain, iters := plainFISTA(pr.a, pr.y, nil, pr.lambda, pr.lip, k, -1)
	if res.Iterations != k || iters != k {
		t.Fatalf("ran %d and %d iterations, want %d", res.Iterations, iters, k)
	}
	got, ref := l1Objective(pr.a, pr.y, res.X, pr.lambda), l1Objective(pr.a, pr.y, plain, pr.lambda)
	if got >= ref {
		t.Errorf("F(α_%d) with restart %.6f, plain FISTA %.6f", k, got, ref)
	}
}

// TestRestartCutsWarmIterations solves 20 consecutive CR 50 windows of
// record 100, each warm-started from the previous solution, with the
// float32 decoder's kernels, tolerance and iteration budget, with and
// without restart. Restart must need at most 0.6× the iterations for
// the same mean PRDN (1 % relative).
func TestRestartCutsWarmIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	const n, windows = core.WindowSize, 20
	m := metrics.MForCR(50, n)
	w, err := wavelet.New[float32](core.DefaultWaveletOrder, n, core.DefaultWaveletLevels)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, core.DefaultColumnWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := windows256("100", float64(2*(windows+1)), n)
	if err != nil {
		t.Fatal(err)
	}
	phiOp := sensing.Op[float32](phi)
	a := linalg.Compose(phiOp, w.SynthesisOp())
	lip := 2 * linalg.PowerIterOpNorm(a, 30)
	opt := solver.Options[float32]{MaxIter: 2000, Tol: 3e-5, Lipschitz: lip, Vectorized: true}

	problem := func(win []int16) (x []float64, y []float32, lambda float32) {
		x = make([]float64, n)
		xf := make([]float32, n)
		for i, v := range win {
			x[i] = float64(v - core.ADCBaseline)
			xf[i] = float32(x[i])
		}
		y = make([]float32, m)
		phiOp.Apply(y, xf)
		aty := make([]float32, n)
		a.ApplyT(aty, y)
		return x, y, linalg.NormInf(aty) / 1000
	}
	prdn := func(x []float64, alpha []float32) float64 {
		rec := make([]float32, n)
		w.Inverse(rec, alpha)
		xr := make([]float64, n)
		for i, v := range rec {
			xr[i] = float64(v)
		}
		p, err := metrics.PRDN(x, xr)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Both runs start from the same cold continuation solve of window 0.
	_, y0, lam0 := problem(wins[0])
	o := opt
	o.Lambda = lam0
	cold, err := solver.FISTAContinuation(a, y0, o, 6)
	if err != nil {
		t.Fatal(err)
	}
	warmR, warmP := cold.X, cold.X
	var itersR, itersP int
	var prdnR, prdnP float64
	for _, win := range wins[1 : windows+1] {
		x, y, lam := problem(win)
		o := opt
		o.Lambda, o.X0 = lam, warmR
		res, err := solver.FISTA(a, y, o)
		if err != nil {
			t.Fatal(err)
		}
		warmR = res.X
		itersR += res.Iterations
		prdnR += prdn(x, res.X)

		var it int
		warmP, it = plainFISTA(a, y, warmP, lam, lip, opt.MaxIter, opt.Tol)
		itersP += it
		prdnP += prdn(x, warmP)
	}
	prdnR /= windows
	prdnP /= windows
	t.Logf("%d windows: iterations %d with restart, %d plain; mean PRDN %.3f%% vs %.3f%%", windows, itersR, itersP, prdnR, prdnP)
	if float64(itersR) > 0.6*float64(itersP) {
		t.Errorf("restart took %d iterations, more than 0.6× plain FISTA's %d", itersR, itersP)
	}
	if math.Abs(prdnR-prdnP) > 0.01*prdnP {
		t.Errorf("mean PRDN %.4f%% with restart, %.4f%% plain: more than 1%% apart", prdnR, prdnP)
	}
}
