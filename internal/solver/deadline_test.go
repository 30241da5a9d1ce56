package solver

import (
	"reflect"
	"testing"

	"csecg/internal/linalg"
)

// pollClock is a deterministic fake wall clock that advances one tick
// per read — the deadline fires after a fixed number of polls without
// any real time passing.
func pollClock(tickNs int64) func() int64 {
	var now int64
	return func() int64 {
		now += tickNs
		return now
	}
}

// TestSolverDeadlineStopsEarly verifies every iterative solver honors
// the soft deadline: it stops well short of MaxIter, flags the result,
// and still returns a full-length best-so-far iterate.
func TestSolverDeadlineStopsEarly(t *testing.T) {
	op, y, _ := sparseProblem(128, 256, 8, 11)
	base := Options[float64]{MaxIter: 3000, Tol: -1, Lambda: 1e-4}
	runs := []struct {
		name string
		run  func(Options[float64]) (Result[float64], error)
	}{
		{"FISTA", func(o Options[float64]) (Result[float64], error) { return FISTA(op, y, o) }},
		{"ISTA", func(o Options[float64]) (Result[float64], error) { return ISTA(op, y, o) }},
		{"GPSR", func(o Options[float64]) (Result[float64], error) { return GPSR(op, y, o) }},
		{"TwIST", func(o Options[float64]) (Result[float64], error) {
			return TwIST(op, y, TwISTOptions[float64]{Options: o})
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			opt.Now = pollClock(1_000_000) // 1 ms per poll
			opt.DeadlineNs = 5_000_000     // expires at the 5th poll
			res, err := tc.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.DeadlineExpired {
				t.Fatalf("DeadlineExpired = false after %d iterations", res.Iterations)
			}
			if res.Converged {
				t.Fatal("deadline stop must not claim convergence")
			}
			// 5 polls at the default 32-iteration stride.
			if want := 5 * DefaultDeadlineEvery; res.Iterations != want {
				t.Errorf("stopped after %d iterations, want %d", res.Iterations, want)
			}
			if len(res.X) != 256 {
				t.Errorf("best-so-far iterate length %d, want 256", len(res.X))
			}
		})
	}
}

// TestSolverDeadlineInertWithoutClock pins the determinism contract: a
// nonzero DeadlineNs with no injected clock must be ignored rather than
// falling back to a wall clock.
func TestSolverDeadlineInertWithoutClock(t *testing.T) {
	op, y, _ := sparseProblem(96, 192, 6, 12)
	res, err := FISTA(op, y, Options[float64]{MaxIter: 50, Tol: -1, Lambda: 1e-3, DeadlineNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineExpired {
		t.Fatal("deadline fired without a clock")
	}
	if res.Iterations != 50 {
		t.Fatalf("ran %d iterations, want the full 50", res.Iterations)
	}
}

// TestContinuationStopsAtDeadline verifies the stage loop gives up the
// λ path once a stage reports an expired budget instead of burning the
// remaining stages on a dead clock.
func TestContinuationStopsAtDeadline(t *testing.T) {
	op, y, _ := sparseProblem(128, 256, 8, 13)
	opt := Options[float64]{MaxIter: 1200, Tol: -1, Lambda: 1e-5}
	opt.Now = pollClock(1_000_000)
	opt.DeadlineNs = 2_000_000 // expires inside the first stage
	res, err := FISTAContinuation(op, y, opt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineExpired {
		t.Fatal("continuation lost the DeadlineExpired flag")
	}
	// First stage: 1200/6 = 200 per stage, stopped at the 2nd poll.
	if want := 2 * DefaultDeadlineEvery; res.Iterations != want {
		t.Errorf("total iterations %d, want %d (first stage only)", res.Iterations, want)
	}
}

// TestContinuationClampsPerStage is the regression test for the
// per-stage budget: MaxIter < stages used to floor-divide to zero
// iterations per stage, silently returning the warm-start (zero)
// vector. Each stage must run at least one iteration.
func TestContinuationClampsPerStage(t *testing.T) {
	op, y, _ := sparseProblem(128, 256, 8, 14)
	const stages = 6
	res, err := FISTAContinuation(op, y, Options[float64]{MaxIter: stages - 2, Tol: -1, Lambda: 1e-4}, stages)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < stages {
		t.Fatalf("%d total iterations across %d stages, want ≥ 1 per stage", res.Iterations, stages)
	}
	if linalg.Norm2(res.X) == 0 {
		t.Fatal("solution is identically zero: stages ran no iterations")
	}
}

// TestSolveDispatch covers the Algorithm-name front door the
// degradation ladder uses.
func TestSolveDispatch(t *testing.T) {
	op, y, _ := sparseProblem(96, 192, 6, 15)
	opt := Options[float64]{MaxIter: 80, Tol: -1, Lambda: 1e-3}
	for _, algo := range []Algorithm{AlgoFISTA, AlgoGPSR} {
		res, err := Solve(algo, op, y, opt, 1)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.X) != 192 || res.Iterations == 0 {
			t.Errorf("%v: degenerate result (len %d, iters %d)", algo, len(res.X), res.Iterations)
		}
	}
	if _, err := Solve(Algorithm(99), op, y, opt, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if AlgoFISTA.String() != "fista" || AlgoGPSR.String() != "gpsr" {
		t.Fatal("algorithm names drifted: telemetry labels depend on them")
	}
}

// TestContinuationAppliesAdjointOnceForDefaultLambda is the regression
// test for a redundant operator apply: with Lambda 0 the default λ and
// the continuation's λ₀ both come from Aᵀy, which must be computed once.
// The same solve with that default λ passed in explicitly needs exactly
// as many adjoint applies and returns the same bits.
func TestContinuationAppliesAdjointOnceForDefaultLambda(t *testing.T) {
	op, y, _ := sparseProblem(96, 192, 6, 16)
	counted := op
	var calls int
	counted.ApplyT = func(dst, v []float64) {
		calls++
		op.ApplyT(dst, v)
	}
	solve := func(lambda float64) (Result[float64], int) {
		calls = 0
		res, err := FISTAContinuation(counted, y, Options[float64]{MaxIter: 120, Tol: -1, Lambda: lambda}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res, calls
	}
	aty := make([]float64, op.InDim)
	op.ApplyT(aty, y)
	def, defCalls := solve(0)
	set, setCalls := solve(linalg.NormInf(aty) / 1000)
	if defCalls != setCalls {
		t.Errorf("default λ: %d adjoint applies, explicit λ: %d", defCalls, setCalls)
	}
	if def.Iterations != set.Iterations || !reflect.DeepEqual(def.X, set.X) {
		t.Errorf("default and explicit λ solves differ: %d vs %d iterations", def.Iterations, set.Iterations)
	}
}
