package solver

import (
	"math"

	"csecg/internal/linalg"
)

// FISTAContinuation solves the λ-target problem through a geometric
// sequence of decreasing λ values, warm-starting each stage with the
// previous solution. Small-λ LASSO problems converge slowly when started
// cold (the regularization path must be traversed anyway); continuation
// walks the path explicitly and typically cuts total iterations by an
// order of magnitude. stages ≤ 1 degenerates to a single FISTA run.
//
// The returned Result aggregates the iterations of all stages and carries
// the final stage's solution and objective. It runs in a fresh
// Workspace, so the returned X is the caller's.
func FISTAContinuation[T linalg.Float](a linalg.Op[T], y []T, opt Options[T], stages int) (Result[T], error) {
	return NewWorkspace(a).FISTAContinuation(y, opt, stages)
}

// FISTAContinuation is the package-level FISTAContinuation run in w's
// buffers. Only the returned StageIters is allocated; X is one of w's
// buffers, as for Workspace.FISTA.
func (w *Workspace[T]) FISTAContinuation(y []T, opt Options[T], stages int) (Result[T], error) {
	if stages <= 1 {
		return w.FISTA(y, opt)
	}
	// Resolve defaults once so every stage shares L and the λ target.
	// The default λ already leaves Aᵀy in w.aty.
	lambdaSet := opt.Lambda > 0
	if err := resolve(w.a, y, &opt, w.aty); err != nil {
		return Result[T]{}, err
	}
	// λ₀ = ‖Aᵀy‖∞ / 2: above that the solution is identically zero, so
	// starting higher wastes stages.
	if lambdaSet {
		w.a.ApplyT(w.aty, y)
	}
	lam0 := linalg.NormInf(w.aty) / 2
	target := opt.Lambda
	if lam0 <= target {
		return w.fista(y, opt)
	}
	// Geometric schedule λ₀ → target over the stage count.
	ratio := float64(target / lam0)
	factor := T(math.Pow(ratio, 1/float64(stages-1)))
	perStage := opt.MaxIter / stages
	if perStage < 1 {
		perStage = 1
	}
	lam := lam0
	var x0 []T
	total := 0
	stageIters := make([]int, 0, stages)
	var last Result[T]
	for s := 0; s < stages; s++ {
		if s == stages-1 {
			lam = target
		}
		stageOpt := opt
		stageOpt.Lambda = lam
		stageOpt.MaxIter = perStage
		stageOpt.X0 = x0
		var err error
		last, err = w.fista(y, stageOpt)
		if err != nil {
			return Result[T]{}, err
		}
		total += last.Iterations
		stageIters = append(stageIters, last.Iterations)
		x0 = last.X
		if last.DeadlineExpired {
			// Budget exhausted mid-path: the stage iterate is the best
			// answer available; later stages would start and immediately
			// expire anyway.
			break
		}
		lam *= factor
	}
	last.Iterations = total
	last.StageIters = stageIters
	return last, nil
}
