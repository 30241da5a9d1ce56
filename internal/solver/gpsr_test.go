package solver

import (
	"testing"
)

func TestGPSRRecoversSparseVector(t *testing.T) {
	op, y, x := sparseProblem(128, 256, 8, 51)
	res, err := GPSR(op, y, Options[float64]{MaxIter: 3000, Tol: 1e-8, Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.03 {
		t.Errorf("GPSR relative error %v, want < 0.03 (iters %d)", e, res.Iterations)
	}
	if !res.Converged {
		t.Error("GPSR did not converge")
	}
}

func TestGPSRMonotone(t *testing.T) {
	op, y, _ := sparseProblem(96, 192, 8, 52)
	var vals []float64
	_, err := GPSR(op, y, Options[float64]{
		MaxIter: 200, Tol: -1, Lambda: 1e-3,
		Trace: func(_ int, s IterSample) { vals = append(vals, s.Objective) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) < 10 {
		t.Fatalf("only %d traced iterations", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at iter %d: %v -> %v", i, vals[i-1], vals[i])
		}
	}
}

func TestGPSRMatchesFISTASolution(t *testing.T) {
	// Both minimize the same objective: at tight tolerances the
	// objective values must agree closely.
	op, y, _ := sparseProblem(64, 128, 5, 53)
	lam := 1e-2
	gp, err := GPSR(op, y, Options[float64]{MaxIter: 5000, Tol: 1e-10, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := FISTA(op, y, Options[float64]{MaxIter: 5000, Tol: 1e-10, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	if gp.Objective > fi.Objective*1.01+1e-9 {
		t.Errorf("GPSR objective %v vs FISTA %v", gp.Objective, fi.Objective)
	}
}

func TestGPSRWarmStart(t *testing.T) {
	op, y, _ := sparseProblem(64, 128, 5, 54)
	first, err := GPSR(op, y, Options[float64]{MaxIter: 4000, Tol: 1e-9, Lambda: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := GPSR(op, y, Options[float64]{MaxIter: 4000, Tol: 1e-9, Lambda: 1e-2, X0: first.X})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > first.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations, first.Iterations)
	}
	if _, err := GPSR(op, y, Options[float64]{X0: make([]float64, 2)}); err == nil {
		t.Error("bad warm-start length accepted")
	}
}

func TestGPSRErrors(t *testing.T) {
	op, y, _ := sparseProblem(32, 64, 3, 55)
	bad := op
	bad.Apply = nil
	if _, err := GPSR(bad, y, Options[float64]{}); err == nil {
		t.Error("nil Apply accepted")
	}
	if _, err := GPSR(op, y[:3], Options[float64]{}); err == nil {
		t.Error("bad measurement length accepted")
	}
}

func BenchmarkGPSR128x256Iters100(b *testing.B) {
	op, y, _ := sparseProblem(128, 256, 8, 56)
	for i := 0; i < b.N; i++ {
		if _, err := GPSR(op, y, Options[float64]{MaxIter: 100, Tol: -1, Lambda: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}
