// Package solver implements the sparse-recovery algorithms of the
// decoder: ISTA, FISTA (the paper's choice, Beck & Teboulle 2009) and a
// greedy OMP baseline.
//
// All solvers work on the Lagrangian form of Eq. (3),
//
//	min_α F(α) = ‖Aα − y‖₂² + λ‖α‖₁,  A = ΦΨ,
//
// and access A only through a linalg.Op — matrix-vector products built
// from the sparse sensing matrix and the wavelet filter bank — so no
// dense M×N matrix is ever formed (the paper's contribution (1)).
//
// The solvers are generic over float32/float64. The float32 instance is
// the paper's "iPhone (32-bit)" decoder and the float64 instance the
// "Matlab (64-bit)" reference of Fig. 6. A Vectorized option switches
// the inner kernels between the scalar ("VFP") and 4-wide unrolled
// ("NEON") variants, which the coordinator cycle model prices
// differently.
package solver

import (
	"fmt"
	"math"

	"csecg/internal/linalg"
)

// Options controls an ISTA/FISTA run.
type Options[T linalg.Float] struct {
	// MaxIter bounds the iteration count. The coordinator uses this to
	// enforce its real-time budget (800 unoptimized / 2000 optimized per
	// the paper). Defaults to 1000 if zero.
	MaxIter int
	// Tol stops the run when the relative iterate change
	// ‖α_k − α_{k−1}‖₂ / max(1, ‖α_k‖₂) falls below it. Defaults to 1e-4
	// if zero; set negative to disable early stopping.
	Tol float64
	// Lambda is the l1 weight λ. If zero, it defaults to
	// 0.001·‖Aᵀy‖∞ — small enough that the solution bias stays below
	// the CS undersampling error on ECG-like problems, while still
	// scaling with the signal.
	Lambda T
	// Lipschitz is the constant L = 2·λmax(AᵀA). If zero, it is
	// estimated by power iteration (30 rounds) before the run.
	Lipschitz T
	// Vectorized selects the 4-wide unrolled kernels (the NEON path).
	// The scalar path is the VFP reference.
	Vectorized bool
	// X0, when non-nil, warm-starts the iteration. The packet decoder
	// passes the previous window's solution: consecutive ECG windows are
	// quasi-periodic, so the run starts near the answer. FISTA's
	// momentum then overshoots around that start, and its adaptive
	// restart damps the overshoot; warm start and restart together set
	// the per-packet iteration counts of Fig. 7 (continuation serves
	// the cold key frames).
	X0 []T
	// Monitor, when non-nil, is invoked each iteration with the current
	// objective value F(α_k). Computing F costs one extra A·α per
	// iteration, so leave nil in production.
	Monitor func(iter int, objective T)
	// Trace, when non-nil, receives the full per-iteration telemetry
	// sample: objective, residual norm and step norm. Like Monitor it
	// costs one extra operator apply per iteration (for the objective),
	// so enable it only in instrumented runs.
	Trace func(iter int, s IterSample)
	// DeadlineNs, when nonzero, is an absolute soft deadline in the
	// nanoseconds of the Now clock: once Now() reaches it the solver
	// stops at the current iterate and flags the result
	// DeadlineExpired. The iterate is the best-so-far answer — a
	// degraded reconstruction, never an error — so real-time callers
	// always get samples to display.
	DeadlineNs int64
	// Now supplies the clock for deadline checks. It must be injected
	// (telemetry.Clock.Now fits): library code stays deterministic, so
	// there is no time.Now fallback — a nonzero DeadlineNs with a nil
	// Now disables the deadline.
	Now func() int64
	// DeadlineEvery is the iteration stride between deadline checks.
	// Defaults to DefaultDeadlineEvery if zero.
	DeadlineEvery int
}

// IterSample is one iteration's solver telemetry, as recorded by the
// Options.Trace hook and surfaced in window traces.
type IterSample struct {
	// Objective is F(α_k) = ‖Aα_k − y‖₂² + λ‖α_k‖₁.
	Objective float64
	// Residual is ‖Ay_k − y‖₂ evaluated at the gradient point of the
	// iteration (the momentum point for FISTA, α_{k−1} for ISTA).
	Residual float64
	// Step is ‖α_k − α_{k−1}‖₂, the quantity the stopping rule tests.
	Step float64
}

// Result reports a solver run.
type Result[T linalg.Float] struct {
	// X is the recovered coefficient vector α.
	X []T
	// Iterations actually performed.
	Iterations int
	// Converged is true when the tolerance (not the iteration cap)
	// stopped the run.
	Converged bool
	// DeadlineExpired is true when the soft deadline (Options.DeadlineNs)
	// stopped the run; X then holds the best-so-far iterate.
	DeadlineExpired bool
	// Objective is the final F(α).
	Objective T
	// Lambda and Lipschitz echo the values used (after defaulting).
	Lambda, Lipschitz T
	// StageIters holds the per-stage iteration counts of a continuation
	// run (FISTAContinuation); nil for single-stage solves. The causal
	// span trace splits the solver leaf into sub-stage spans
	// proportionally to these counts.
	StageIters []int
}

// FISTA minimizes F(α) = ‖Aα−y‖₂² + λ‖α‖₁ with the fast iterative
// shrinkage-thresholding algorithm (constant step size, Eqs. (4)-(6) of
// the paper) and the gradient-scheme adaptive restart of O'Donoghue &
// Candès (2015): whenever (y_k − α_k)ᵀ(α_k − α_{k−1}) > 0 the momentum
// is dropped (t_{k+1} = 1, y_{k+1} = α_k). Restart changes no stopping
// rule or option; both kernel shapes run it. It returns an error only
// for structural problems (shape mismatch, nil operator).
func FISTA[T linalg.Float](a linalg.Op[T], y []T, opt Options[T]) (Result[T], error) {
	st, err := newState(a, y, &opt)
	if err != nil {
		return Result[T]{}, err
	}
	n := a.InDim
	alpha := make([]T, n)     // α_k
	alphaPrev := make([]T, n) // α_{k−1}
	yk := make([]T, n)        // momentum point y_k
	grad := make([]T, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), n)
		}
		copy(alphaPrev, opt.X0)
		copy(yk, opt.X0)
	}
	tk := T(1)
	dl := newDeadline(&opt)
	res := Result[T]{Lambda: opt.Lambda, Lipschitz: opt.Lipschitz}
	step, thr := 1/opt.Lipschitz, opt.Lambda/opt.Lipschitz
	pass := fistaStep[T]
	if st.vec {
		pass = fistaStepFused[T]
	}
	for k := 1; k <= opt.MaxIter; k++ {
		// grad holds the half-gradient Aᵀ(Ay_k − y); the update pass
		// doubles it.
		st.halfGradient(grad, yk)
		var residual T
		if opt.Trace != nil {
			// st.r still holds Ay_k − y from the gradient evaluation;
			// read it before the objective computation reuses the buffer.
			residual = linalg.Norm2(st.r)
		}
		// t_{k+1}, Eq. (5), and the momentum weight of Eq. (6).
		tNext := (1 + T(math.Sqrt(float64(1+4*tk*tk)))) / 2
		beta := (tk - 1) / tNext
		// α_k = prox_{λ/L}(y_k − (1/L)∇f(y_k)), Eq. (4), and
		// y_{k+1} = α_k + β(α_k − α_{k−1}), Eq. (6), in one pass.
		p := pass(alpha, alphaPrev, yk, grad, step, thr, beta, opt.Tol >= 0)
		tk = tNext
		if p.Restart > 0 {
			// Gradient-scheme adaptive restart (O'Donoghue & Candès
			// 2015): the momentum step went uphill, so drop it.
			tk = 1
			copy(yk, alpha)
		}
		res.Iterations = k
		if opt.Monitor != nil {
			opt.Monitor(k, st.objective(alpha, opt.Lambda))
		}
		if opt.Trace != nil {
			opt.Trace(k, IterSample{
				Objective: float64(st.objective(alpha, opt.Lambda)),
				Residual:  float64(residual),
				Step:      float64(stepNorm(alpha, alphaPrev)),
			})
		}
		if stopped(p.Norm, p.Step, opt.Tol) {
			res.Converged = true
			copy(alphaPrev, alpha)
			break
		}
		if dl.expired(k) {
			res.DeadlineExpired = true
			copy(alphaPrev, alpha)
			break
		}
		// Swap roles: α_k becomes α_{k−1}; the old buffer is fully
		// overwritten by the next update pass.
		alpha, alphaPrev = alphaPrev, alpha
	}
	// alphaPrev holds the last iterate after the final swap (or the
	// explicit copy on convergence).
	res.X = alphaPrev
	res.Objective = st.objective(res.X, opt.Lambda)
	return res, nil
}

// ISTA is the unaccelerated baseline (O(1/k) vs FISTA's O(1/k²)); the
// paper cites it as "notoriously slow", which the convergence experiment
// reproduces.
func ISTA[T linalg.Float](a linalg.Op[T], y []T, opt Options[T]) (Result[T], error) {
	st, err := newState(a, y, &opt)
	if err != nil {
		return Result[T]{}, err
	}
	n := a.InDim
	alpha := make([]T, n)
	prev := make([]T, n)
	grad := make([]T, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), n)
		}
		copy(alpha, opt.X0)
	}
	dl := newDeadline(&opt)
	res := Result[T]{Lambda: opt.Lambda, Lipschitz: opt.Lipschitz}
	for k := 1; k <= opt.MaxIter; k++ {
		copy(prev, alpha)
		st.gradient(grad, alpha)
		var residual T
		if opt.Trace != nil {
			residual = linalg.Norm2(st.r)
		}
		step := 1 / opt.Lipschitz
		if st.vec {
			linalg.Axpy4(-step, grad, alpha)
			linalg.SoftThreshold4(alpha, alpha, opt.Lambda/opt.Lipschitz)
		} else {
			linalg.Axpy(-step, grad, alpha)
			linalg.SoftThreshold(alpha, alpha, opt.Lambda/opt.Lipschitz)
		}
		res.Iterations = k
		if opt.Monitor != nil {
			opt.Monitor(k, st.objective(alpha, opt.Lambda))
		}
		if opt.Trace != nil {
			opt.Trace(k, IterSample{
				Objective: float64(st.objective(alpha, opt.Lambda)),
				Residual:  float64(residual),
				Step:      float64(stepNorm(alpha, prev)),
			})
		}
		if st.converged(alpha, prev, opt.Tol) {
			res.Converged = true
			break
		}
		if dl.expired(k) {
			res.DeadlineExpired = true
			break
		}
	}
	res.X = alpha
	res.Objective = st.objective(alpha, opt.Lambda)
	return res, nil
}

// state carries the shared scratch buffers and kernels of a run.
type state[T linalg.Float] struct {
	a   linalg.Op[T]
	y   []T
	r   []T // residual buffer, length M
	vec bool
}

func newState[T linalg.Float](a linalg.Op[T], y []T, opt *Options[T]) (*state[T], error) {
	if a.Apply == nil || a.ApplyT == nil {
		return nil, fmt.Errorf("solver: operator missing Apply/ApplyT")
	}
	if len(y) != a.OutDim {
		return nil, fmt.Errorf("solver: measurement length %d, operator range %d", len(y), a.OutDim)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 1000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-4
	}
	st := &state[T]{a: a, y: y, r: make([]T, a.OutDim), vec: opt.Vectorized}
	if opt.Lipschitz <= 0 {
		opt.Lipschitz = 2 * linalg.PowerIterOpNorm(a, 30)
		if opt.Lipschitz <= 0 {
			return nil, fmt.Errorf("solver: operator norm estimated as zero")
		}
	}
	if opt.Lambda <= 0 {
		aty := make([]T, a.InDim)
		a.ApplyT(aty, y)
		opt.Lambda = linalg.NormInf(aty) / 1000
		if opt.Lambda == 0 {
			opt.Lambda = 1e-6
		}
	}
	return st, nil
}

// halfGradient computes ½∇f(x) = Aᵀ(Ax − y) into dst, leaving the
// residual Ax − y in st.r.
func (st *state[T]) halfGradient(dst, x []T) {
	st.a.Apply(st.r, x)
	if st.vec {
		linalg.Sub4(st.r, st.r, st.y)
	} else {
		linalg.Sub(st.r, st.r, st.y)
	}
	st.a.ApplyT(dst, st.r)
}

// gradient computes ∇f(x) = 2·Aᵀ(Ax − y) into dst.
func (st *state[T]) gradient(dst, x []T) {
	st.halfGradient(dst, x)
	if st.vec {
		linalg.Axpy4(1, dst, dst) // ×2 via dst += dst
	} else {
		linalg.Scale(2, dst)
	}
}

func (st *state[T]) objective(x []T, lambda T) T {
	st.a.Apply(st.r, x)
	linalg.Sub(st.r, st.r, st.y)
	n2 := linalg.Norm2(st.r)
	return n2*n2 + lambda*linalg.Norm1(x)
}

// stepNorm computes ‖cur − prev‖₂ without scratch allocation (it runs
// once per traced iteration).
func stepNorm[T linalg.Float](cur, prev []T) T {
	var s float64
	for i := range cur {
		d := float64(cur[i] - prev[i])
		s += d * d
	}
	return T(math.Sqrt(s))
}

func (st *state[T]) converged(cur, prev []T, tol float64) bool {
	if tol < 0 {
		return false
	}
	return stopped(linalg.Norm2(cur), linalg.DistNorm2(cur, prev), tol)
}
