package solver

import (
	"testing"

	"csecg/internal/linalg"
)

func TestTwISTRecoversSparseVector(t *testing.T) {
	op, y, x := sparseProblem(128, 256, 8, 41)
	res, err := TwIST(op, y, TwISTOptions[float64]{
		Options: Options[float64]{MaxIter: 3000, Tol: 1e-9, Lambda: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.03 {
		t.Errorf("TwIST relative error %v, want < 0.03 (iters %d)", e, res.Iterations)
	}
}

func TestTwISTMonotone(t *testing.T) {
	// The monotone safeguard must make the objective non-increasing.
	op, y, _ := sparseProblem(96, 192, 8, 42)
	var vals []float64
	_, err := TwIST(op, y, TwISTOptions[float64]{
		Options: Options[float64]{
			MaxIter: 300, Tol: -1, Lambda: 1e-3,
			Monitor: func(_ int, obj float64) { vals = append(vals, obj) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]*(1+1e-10) {
			t.Fatalf("objective increased at iter %d: %v -> %v", i, vals[i-1], vals[i])
		}
	}
}

func TestTwISTFasterThanISTA(t *testing.T) {
	op, y, _ := sparseProblem(128, 256, 10, 43)
	const iters = 80
	lam := 1e-3
	tw, err := TwIST(op, y, TwISTOptions[float64]{Options: Options[float64]{MaxIter: iters, Tol: -1, Lambda: lam}})
	if err != nil {
		t.Fatal(err)
	}
	is, err := ISTA(op, y, Options[float64]{MaxIter: iters, Tol: -1, Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	if tw.Objective >= is.Objective {
		t.Errorf("TwIST objective %v not better than ISTA %v after %d iters", tw.Objective, is.Objective, iters)
	}
}

func TestTwISTWarmStart(t *testing.T) {
	op, y, _ := sparseProblem(64, 128, 5, 44)
	first, err := TwIST(op, y, TwISTOptions[float64]{Options: Options[float64]{MaxIter: 2000, Tol: 1e-8, Lambda: 1e-2}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := TwIST(op, y, TwISTOptions[float64]{Options: Options[float64]{MaxIter: 2000, Tol: 1e-8, Lambda: 1e-2, X0: first.X}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= first.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations, first.Iterations)
	}
	if _, err := TwIST(op, y, TwISTOptions[float64]{Options: Options[float64]{X0: make([]float64, 3)}}); err == nil {
		t.Error("bad warm-start length accepted")
	}
}

func TestTwISTErrors(t *testing.T) {
	op, y, _ := sparseProblem(32, 64, 3, 45)
	bad := op
	bad.ApplyT = nil
	if _, err := TwIST(bad, y, TwISTOptions[float64]{}); err == nil {
		t.Error("nil ApplyT accepted")
	}
	if _, err := TwIST(op, y[:4], TwISTOptions[float64]{}); err == nil {
		t.Error("bad measurement length accepted")
	}
	// Out-of-range Xi1 falls back to the default rather than failing.
	if _, err := TwIST(op, y, TwISTOptions[float64]{Xi1: 5, Options: Options[float64]{MaxIter: 5}}); err != nil {
		t.Errorf("Xi1 fallback failed: %v", err)
	}
}

func BenchmarkTwIST128x256Iters100(b *testing.B) {
	op, y, _ := sparseProblem(128, 256, 8, 47)
	lip := 2 * linalg.PowerIterOpNorm(op, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TwIST(op, y, TwISTOptions[float64]{
			Options: Options[float64]{MaxIter: 100, Tol: -1, Lambda: 1e-3, Lipschitz: lip},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
