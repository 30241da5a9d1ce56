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
// "Matlab (64-bit)" reference of Fig. 6. The paper's VFP-versus-NEON
// comparison is not a solver option: both builds run the same update
// passes here, and the coordinator's cycle model prices an iteration
// per build.
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
	// X0, when non-nil, warm-starts the iteration. The packet decoder
	// passes the previous window's solution, and continuation passes
	// each stage's result to the next. FISTA's momentum overshoots
	// around a warm start, and its adaptive restart damps the
	// overshoot. The previous window is not a better start than zero
	// for today's solver: on stream-cr50 (seed 1, 24 sessions × 2
	// twenty-window passes, NEON budget) the decoder's warm starts plus
	// 6-stage cold continuation averaged 330.3 iterations per window at
	// PRDN 8.902 %, while cold single-stage solves of every window
	// averaged 295.0 at PRDN 8.897 %. In a Workspace solve, X0 may be
	// the X of the workspace's previous solve.
	X0 []T
	// Trace, when non-nil, receives the per-iteration telemetry sample:
	// objective, residual norm and step norm (GPSR and TwIST report the
	// objective only). Computing the objective costs one extra operator
	// apply per iteration, so enable it only in instrumented runs.
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
	// Now disables the deadline. The clock is read every
	// DefaultDeadlineEvery iterations.
	Now func() int64
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

// Workspace holds the scratch of FISTA and FISTAContinuation for one
// operator: the iterates α_k and α_{k−1}, the momentum point y_k, the
// half-gradient, the residual Aα − y and the Aᵀy that the λ defaults
// read. A caller that keeps one for many solves, as core.Decoder does
// for its whole life, solves warm windows without allocating. A
// Workspace serves one solve at a time.
type Workspace[T linalg.Float] struct {
	a                               linalg.Op[T]
	alpha, alphaPrev, yk, grad, aty []T // length N
	r                               []T // length M
	// ordered counts the update passes of the workspace's solves that
	// took the ordered fallback for a decision (fistaStepAVX2).
	ordered int
}

// NewWorkspace allocates a workspace for solves over the operator a.
func NewWorkspace[T linalg.Float](a linalg.Op[T]) *Workspace[T] {
	n, m := a.InDim, a.OutDim
	buf := make([]T, 5*n+m)
	next := func(k int) []T {
		v := buf[:k:k]
		buf = buf[k:]
		return v
	}
	return &Workspace[T]{a: a, alpha: next(n), alphaPrev: next(n), yk: next(n), grad: next(n), aty: next(n), r: next(m)}
}

// FISTA minimizes F(α) = ‖Aα−y‖₂² + λ‖α‖₁ with the fast iterative
// shrinkage-thresholding algorithm (constant step size, Eqs. (4)-(6) of
// the paper) and the gradient-scheme adaptive restart of O'Donoghue &
// Candès (2015): whenever (y_k − α_k)ᵀ(α_k − α_{k−1}) > 0 the momentum
// is dropped (t_{k+1} = 1, y_{k+1} = α_k). Restart changes no stopping
// rule or option. It returns an error only for structural problems
// (shape mismatch, nil operator).
//
// FISTA runs in a fresh Workspace, so the returned X is the caller's.
func FISTA[T linalg.Float](a linalg.Op[T], y []T, opt Options[T]) (Result[T], error) {
	return NewWorkspace(a).FISTA(y, opt)
}

// FISTA is the package-level FISTA run in w's buffers. The returned X
// is one of them: it holds until w's next solve, and that solve may
// take it back as Options.X0.
func (w *Workspace[T]) FISTA(y []T, opt Options[T]) (Result[T], error) {
	if err := resolve(w.a, y, &opt, w.aty); err != nil {
		return Result[T]{}, err
	}
	return w.fista(y, opt)
}

// fista runs the FISTA iteration with opt's defaults already resolved.
func (w *Workspace[T]) fista(y []T, opt Options[T]) (Result[T], error) {
	st := state[T]{a: w.a, y: y, r: w.r}
	alpha, alphaPrev, yk, grad := w.alpha, w.alphaPrev, w.yk, w.grad
	if opt.X0 != nil {
		if len(opt.X0) != len(alpha) {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), len(alpha))
		}
		// X0 may be one of w's buffers (the previous solve's X), so it
		// is copied before anything else is written.
		copy(alphaPrev, opt.X0)
		copy(yk, alphaPrev)
	} else {
		clear(alphaPrev)
		clear(yk)
	}
	tk := T(1)
	dl := newDeadline(&opt)
	res := Result[T]{Lambda: opt.Lambda, Lipschitz: opt.Lipschitz}
	step, thr := 1/opt.Lipschitz, opt.Lambda/opt.Lipschitz
	for k := 1; k <= opt.MaxIter; k++ {
		// grad holds the half-gradient Aᵀ(Ay_k − y); the update pass
		// doubles it. The pass writes every α_k, so α_k needs no reset.
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
		p := fistaStepFused(alpha, alphaPrev, yk, grad, step, thr, beta, opt.Tol)
		if p.RestartOrdered || p.StopOrdered {
			w.ordered++
		}
		tk = tNext
		if p.Restart {
			// Gradient-scheme adaptive restart (O'Donoghue & Candès
			// 2015): the momentum step went uphill, so drop it.
			tk = 1
			copy(yk, alpha)
		}
		res.Iterations = k
		if opt.Trace != nil {
			opt.Trace(k, IterSample{
				Objective: float64(st.objective(alpha, opt.Lambda)),
				Residual:  float64(residual),
				Step:      float64(stepNorm(alpha, alphaPrev)),
			})
		}
		if p.Stop {
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
		linalg.Axpy(-1/opt.Lipschitz, grad, alpha)
		linalg.SoftThreshold(alpha, alpha, opt.Lambda/opt.Lipschitz)
		res.Iterations = k
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

// state carries the operator, measurement and residual buffer of a run.
type state[T linalg.Float] struct {
	a linalg.Op[T]
	y []T
	r []T // residual buffer, length M
}

// newState resolves opt's defaults for a run over a fresh residual
// buffer.
func newState[T linalg.Float](a linalg.Op[T], y []T, opt *Options[T]) (*state[T], error) {
	if err := resolve(a, y, opt, nil); err != nil {
		return nil, err
	}
	return &state[T]{a: a, y: y, r: make([]T, a.OutDim)}, nil
}

// resolve checks a run's operator and measurement, then fills in opt's
// MaxIter, Tol, Lipschitz and Lambda defaults. aty is the length-N
// scratch for the λ default's Aᵀy; nil allocates it when needed.
func resolve[T linalg.Float](a linalg.Op[T], y []T, opt *Options[T], aty []T) error {
	if a.Apply == nil || a.ApplyT == nil {
		return fmt.Errorf("solver: operator missing Apply/ApplyT")
	}
	if len(y) != a.OutDim {
		return fmt.Errorf("solver: measurement length %d, operator range %d", len(y), a.OutDim)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 1000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-4
	}
	if opt.Lipschitz <= 0 {
		opt.Lipschitz = 2 * linalg.PowerIterOpNorm(a, 30)
		if opt.Lipschitz <= 0 {
			return fmt.Errorf("solver: operator norm estimated as zero")
		}
	}
	if opt.Lambda <= 0 {
		if aty == nil {
			aty = make([]T, a.InDim)
		}
		a.ApplyT(aty, y)
		opt.Lambda = linalg.NormInf(aty) / 1000
		if opt.Lambda == 0 {
			opt.Lambda = 1e-6
		}
	}
	return nil
}

// halfGradient computes ½∇f(x) = Aᵀ(Ax − y) into dst, leaving the
// residual Ax − y in st.r.
func (st *state[T]) halfGradient(dst, x []T) {
	st.a.Apply(st.r, x)
	linalg.Sub(st.r, st.r, st.y)
	st.a.ApplyT(dst, st.r)
}

// gradient computes ∇f(x) = 2·Aᵀ(Ax − y) into dst.
func (st *state[T]) gradient(dst, x []T) {
	st.halfGradient(dst, x)
	linalg.Scale(2, dst)
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
