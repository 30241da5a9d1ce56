package solver

import (
	"math"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/rng"
	"csecg/internal/sensing"
	"csecg/internal/wavelet"
)

// sparseProblem builds a noiseless CS problem: a k-sparse coefficient
// vector measured through a Gaussian matrix.
func sparseProblem(m, n, k int, seed uint64) (linalg.Op[float64], []float64, []float64) {
	gen := rng.New(seed)
	mat, err := sensing.NewGaussian[float64](m, n, seed+1)
	if err != nil {
		panic(err)
	}
	x := make([]float64, n)
	supp := make([]int, k)
	gen.SampleK(supp, k, n)
	for _, idx := range supp {
		x[idx] = gen.NormFloat64()*2 + 1
	}
	op := linalg.OpFromDense(mat)
	y := make([]float64, m)
	op.Apply(y, x)
	return op, y, x
}

func relErr(got, want []float64) float64 {
	d := make([]float64, len(got))
	linalg.Sub(d, got, want)
	den := float64(linalg.Norm2(want))
	if den == 0 {
		den = 1
	}
	return float64(linalg.Norm2(d)) / den
}

func TestFISTARecoversSparseVector(t *testing.T) {
	op, y, x := sparseProblem(128, 256, 8, 1)
	res, err := FISTA(op, y, Options[float64]{MaxIter: 3000, Tol: 1e-9, Lambda: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.02 {
		t.Errorf("FISTA relative error %v, want < 0.02 (iters %d)", e, res.Iterations)
	}
}

func TestFISTAFasterThanISTA(t *testing.T) {
	// After the same iteration budget, FISTA's objective must be lower
	// (O(1/k²) vs O(1/k), Section II-B).
	op, y, _ := sparseProblem(128, 256, 10, 3)
	const iters = 60
	lam := 1e-3
	fi, err := FISTA(op, y, Options[float64]{MaxIter: iters, Tol: -1, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	is, err := ISTA(op, y, Options[float64]{MaxIter: iters, Tol: -1, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	if fi.Objective >= is.Objective {
		t.Errorf("FISTA objective %v not better than ISTA %v after %d iters", fi.Objective, is.Objective, iters)
	}
}

func TestFISTAConvergenceRate(t *testing.T) {
	// Track the objective gap trajectory: FISTA's gap at iteration 4k
	// should shrink much faster than ISTA's. Use a loose factor to stay
	// robust across problems.
	op, y, _ := sparseProblem(128, 256, 10, 4)
	lam := 1e-3
	trace := func(algo func(linalg.Op[float64], []float64, Options[float64]) (Result[float64], error)) []float64 {
		var vals []float64
		_, err := algo(op, y, Options[float64]{
			MaxIter: 200, Tol: -1, Lambda: lam,
			Monitor: func(_ int, obj float64) { vals = append(vals, obj) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	fv := trace(FISTA[float64])
	iv := trace(ISTA[float64])
	fStar := fv[len(fv)-1]
	if iv[len(iv)-1] < fStar {
		fStar = iv[len(iv)-1]
	}
	fGap := fv[50] - fStar
	iGap := iv[50] - fStar
	if fGap < 0 {
		fGap = 0
	}
	if !(fGap < iGap) {
		t.Errorf("at iter 50: FISTA gap %v not below ISTA gap %v", fGap, iGap)
	}
}

func TestFISTAMonotoneObjectiveISTA(t *testing.T) {
	// ISTA is a majorization-minimization scheme: the objective is
	// non-increasing (FISTA's is not, so only ISTA is checked).
	op, y, _ := sparseProblem(64, 128, 5, 5)
	var vals []float64
	_, err := ISTA(op, y, Options[float64]{
		MaxIter: 100, Tol: -1, Lambda: 1e-3,
		Monitor: func(_ int, obj float64) { vals = append(vals, obj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]*(1+1e-10) {
			t.Fatalf("ISTA objective increased at iter %d: %v -> %v", i, vals[i-1], vals[i])
		}
	}
}

func TestFISTAThroughWaveletOperator(t *testing.T) {
	// End-to-end operator test: recover a wavelet-sparse *signal* from
	// sparse binary measurements, the exact structure of the decoder.
	const n, m, d = 512, 256, 12
	w, err := wavelet.New[float64](4, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := sensing.NewSparseBinary(m, n, d, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Build a signal that is exactly 20-sparse in the wavelet domain.
	gen := rng.New(33)
	alpha := make([]float64, n)
	supp := make([]int, 20)
	gen.SampleK(supp, 20, n)
	for _, idx := range supp {
		alpha[idx] = gen.NormFloat64() * 100
	}
	x := make([]float64, n)
	w.Inverse(x, alpha)
	a := linalg.Compose(sensing.Op[float64](phi), w.SynthesisOp())
	y := make([]float64, m)
	phiOp := sensing.Op[float64](phi)
	phiOp.Apply(y, x)
	res, err := FISTAContinuation(a, y, Options[float64]{MaxIter: 4000, Tol: 1e-10, Lambda: 1e-3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	xhat := make([]float64, n)
	w.Inverse(xhat, res.X)
	if e := relErr(xhat, x); e > 0.02 {
		t.Errorf("wavelet-domain recovery error %v, want < 0.02 (iters %d)", e, res.Iterations)
	}
}

func TestContinuationBeatsColdStart(t *testing.T) {
	// Same iteration budget, small target λ: continuation must land at a
	// materially lower objective than a cold single-stage run.
	op, y, _ := sparseProblem(128, 256, 10, 13)
	const budget = 600
	lam := 1e-4
	cold, err := FISTA(op, y, Options[float64]{MaxIter: budget, Tol: -1, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := FISTAContinuation(op, y, Options[float64]{MaxIter: budget, Tol: -1, Lambda: lam}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cont.Iterations > budget {
		t.Errorf("continuation used %d iterations, budget %d", cont.Iterations, budget)
	}
	if cont.Objective >= cold.Objective {
		t.Errorf("continuation objective %v not below cold start %v", cont.Objective, cold.Objective)
	}
}

func TestContinuationDegenerate(t *testing.T) {
	op, y, _ := sparseProblem(64, 128, 5, 14)
	// stages=1 must match plain FISTA exactly.
	a, err := FISTAContinuation(op, y, Options[float64]{MaxIter: 50, Tol: -1, Lambda: 1e-3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FISTA(op, y, Options[float64]{MaxIter: 50, Tol: -1, Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(a.X, b.X); e > 1e-12 {
		t.Errorf("stages=1 diverged from plain FISTA by %v", e)
	}
}

func TestWarmStartCutsIterations(t *testing.T) {
	// Solve, perturb the measurements slightly (as consecutive ECG
	// windows do), re-solve warm vs cold: warm must converge in fewer
	// iterations.
	op, y, _ := sparseProblem(128, 256, 8, 15)
	first, err := FISTA(op, y, Options[float64]{MaxIter: 5000, Tol: 1e-8, Lambda: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	y2 := make([]float64, len(y))
	for i, v := range y {
		y2[i] = v * 1.01
	}
	cold, err := FISTA(op, y2, Options[float64]{MaxIter: 5000, Tol: 1e-8, Lambda: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FISTA(op, y2, Options[float64]{MaxIter: 5000, Tol: 1e-8, Lambda: 1e-2, X0: first.X})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm start did not converge")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
}

func TestWarmStartBadLength(t *testing.T) {
	op, y, _ := sparseProblem(32, 64, 3, 16)
	if _, err := FISTA(op, y, Options[float64]{X0: make([]float64, 10)}); err == nil {
		t.Error("expected error for bad warm-start length")
	}
	if _, err := ISTA(op, y, Options[float64]{X0: make([]float64, 10)}); err == nil {
		t.Error("expected error for bad warm-start length (ISTA)")
	}
}

func TestFISTAFloat32(t *testing.T) {
	// The float32 instantiation (the iPhone decoder) must recover nearly
	// as well as float64 — the claim of Fig. 6.
	const m, n, k = 128, 256, 8
	mat64, _ := sensing.NewGaussian[float64](m, n, 21)
	mat32, _ := sensing.NewGaussian[float32](m, n, 21)
	gen := rng.New(22)
	x := make([]float64, n)
	supp := make([]int, k)
	gen.SampleK(supp, k, n)
	for _, idx := range supp {
		x[idx] = gen.NormFloat64()*2 + 1
	}
	op64 := linalg.OpFromDense(mat64)
	y64 := make([]float64, m)
	op64.Apply(y64, x)
	y32 := make([]float32, m)
	for i, v := range y64 {
		y32[i] = float32(v)
	}
	res32, err := FISTA(linalg.OpFromDense(mat32), y32, Options[float32]{MaxIter: 2000, Tol: 1e-6, Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	for i, v := range res32.X {
		got[i] = float64(v)
	}
	if e := relErr(got, x); e > 0.05 {
		t.Errorf("float32 recovery error %v, want < 0.05", e)
	}
}

func TestFISTAErrors(t *testing.T) {
	op, y, _ := sparseProblem(32, 64, 3, 6)
	if _, err := FISTA(op, y[:10], Options[float64]{}); err == nil {
		t.Error("expected error for measurement length mismatch")
	}
	bad := op
	bad.Apply = nil
	if _, err := FISTA(bad, y, Options[float64]{}); err == nil {
		t.Error("expected error for nil Apply")
	}
	if _, err := ISTA(bad, y, Options[float64]{}); err == nil {
		t.Error("expected error for nil Apply (ISTA)")
	}
}

func TestFISTADefaults(t *testing.T) {
	op, y, _ := sparseProblem(64, 128, 4, 7)
	res, err := FISTA(op, y, Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda <= 0 || res.Lipschitz <= 0 {
		t.Errorf("defaults not applied: lambda %v, L %v", res.Lambda, res.Lipschitz)
	}
	if res.Iterations == 0 {
		t.Error("no iterations performed")
	}
}

func TestOMPExactRecovery(t *testing.T) {
	op, y, x := sparseProblem(128, 256, 8, 8)
	res, err := OMP(op, y, 16, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 1e-6 {
		t.Errorf("OMP relative error %v, want ~0 (noiseless, very sparse)", e)
	}
	if !res.Converged {
		t.Error("OMP did not report convergence")
	}
}

func TestOMPRespectsAtomBudget(t *testing.T) {
	op, y, _ := sparseProblem(64, 128, 20, 9)
	res, err := OMP(op, y, 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	nz := 0
	for _, v := range res.X {
		if v != 0 {
			nz++
		}
	}
	if nz > 5 {
		t.Errorf("OMP support size %d exceeds budget 5", nz)
	}
}

func TestOMPZeroMeasurement(t *testing.T) {
	op, _, _ := sparseProblem(32, 64, 3, 10)
	res, err := OMP(op, make([]float64, 32), 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.X {
		if v != 0 {
			t.Fatal("OMP on zero measurements returned nonzero solution")
		}
	}
}

func TestOMPErrors(t *testing.T) {
	op, y, _ := sparseProblem(32, 64, 3, 11)
	if _, err := OMP(op, y, 0, 1e-9); err == nil {
		t.Error("expected error for maxAtoms=0")
	}
	if _, err := OMP(op, y[:5], 4, 1e-9); err == nil {
		t.Error("expected error for bad measurement length")
	}
}

func TestCholSolveKnownSystem(t *testing.T) {
	// G = [[4,2],[2,3]], b = [10, 8] → x = [1.75, 1.5].
	g := []float64{4, 2, 2, 3}
	b := []float64{10, 8}
	x, ok := cholSolve(g, b, 2)
	if !ok {
		t.Fatal("cholSolve reported non-PD for PD matrix")
	}
	if math.Abs(x[0]-1.75) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Errorf("cholSolve = %v, want [1.75 1.5]", x)
	}
}

func TestCholSolveRejectsSingular(t *testing.T) {
	g := []float64{1, 1, 1, 1} // rank 1
	if _, ok := cholSolve(g, []float64{1, 1}, 2); ok {
		t.Error("cholSolve accepted singular matrix")
	}
}

func BenchmarkFISTA512x256Iters100Float32(b *testing.B) {
	const n, m, d = 512, 256, 12
	w, _ := wavelet.New[float32](4, n, 5)
	phi, _ := sensing.NewSparseBinary(m, n, d, 9)
	a := linalg.Compose(sensing.Op[float32](phi), w.SynthesisOp())
	gen := rng.New(1)
	y := make([]float32, m)
	for i := range y {
		y[i] = float32(gen.NormFloat64())
	}
	lip := 2 * linalg.PowerIterOpNorm(a, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FISTA(a, y, Options[float32]{MaxIter: 100, Tol: -1, Lambda: 0.01, Lipschitz: lip}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOMP128x256Atoms8(b *testing.B) {
	op, y, _ := sparseProblem(128, 256, 8, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OMP(op, y, 8, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
