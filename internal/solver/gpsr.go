package solver

import (
	"fmt"

	"csecg/internal/linalg"
)

// GPSR minimizes F(α) = ½‖Aα−y‖₂² + λ‖α‖₁ with gradient projection for
// sparse reconstruction (Figueiredo, Nowak & Wright 2007 — the paper's
// reference [9]). The l1 problem is split as α = u − v with u, v ≥ 0,
// turning it into a bound-constrained quadratic program solved by
// projected gradient steps with Barzilai-Borwein step lengths and a
// monotone safeguard.
//
// GPSR's customary objective scales the data term by one half; this
// implementation halves λ internally so Options.Lambda and
// Result.Objective keep the package-wide convention
// F = ‖Aα−y‖₂² + λ‖α‖₁, making results directly comparable with
// FISTA/ISTA/TwIST.
//
// At moderate λ GPSR typically converges in fewer iterations than
// FISTA; at very small λ (≲ ‖Aᵀy‖∞/10⁴) its projected-gradient steps
// slow down markedly — the regime the GPSR authors address with
// continuation, which callers can layer exactly as FISTAContinuation
// does.
func GPSR[T linalg.Float](a linalg.Op[T], y []T, opt Options[T]) (Result[T], error) {
	if _, err := newState(a, y, &opt); err != nil {
		return Result[T]{}, err
	}
	n := a.InDim
	u := make([]T, n)
	v := make([]T, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), n)
		}
		for i, x0 := range opt.X0 {
			if x0 > 0 {
				u[i] = x0
			} else {
				v[i] = -x0
			}
		}
	}
	x := make([]T, n)        // u − v
	r := make([]T, a.OutDim) // residual A x − y
	atr := make([]T, n)      // Aᵀ r
	gu := make([]T, n)       // gradient wrt u
	gv := make([]T, n)       // gradient wrt v
	du := make([]T, n)
	dv := make([]T, n)
	dx := make([]T, n)
	adx := make([]T, a.OutDim)
	// Internal λ under GPSR's ½-data-term convention (see doc comment).
	lambda := opt.Lambda / 2

	// residual and gradients at the current point.
	refresh := func() {
		linalg.Sub(x, u, v)
		a.Apply(r, x)
		linalg.Sub(r, r, y)
		a.ApplyT(atr, r)
		for i := range gu {
			gu[i] = lambda + atr[i]
			gv[i] = lambda - atr[i]
		}
	}
	objective := func() T {
		nrm := linalg.Norm2(r)
		return nrm*nrm + 2*lambda*linalg.Norm1(x)
	}
	refresh()
	// Initial step from the Lipschitz constant (‖A‖² = L/2 under the
	// package convention).
	alpha := 2 / opt.Lipschitz
	dl := newDeadline(&opt)
	res := Result[T]{Lambda: lambda, Lipschitz: opt.Lipschitz}
	prevObj := objective()
	for k := 1; k <= opt.MaxIter; k++ {
		// Projected gradient candidate: z⁺ = max(0, z − α∇F).
		for i := range u {
			nu := u[i] - alpha*gu[i]
			if nu < 0 {
				nu = 0
			}
			nv := v[i] - alpha*gv[i]
			if nv < 0 {
				nv = 0
			}
			du[i] = nu - u[i]
			dv[i] = nv - v[i]
		}
		// Backtracking on the candidate until the objective decreases
		// (monotone GPSR). dF along (du,dv): quadratic in the scalar
		// shrink factor; halve until improvement.
		linalg.Sub(dx, du, dv)
		a.Apply(adx, dx)
		shrink := T(1)
		accepted := false
		for bt := 0; bt < 30; bt++ {
			// Trial objective computed incrementally:
			// ‖r + s·A dx‖² + 2λ‖x + s·dx as u,v sums‖₁ via u,v updates.
			var quad, lin T
			for i := range r {
				lin += r[i] * adx[i]
				quad += adx[i] * adx[i]
			}
			rr := linalg.Norm2(r)
			trial := rr*rr + 2*shrink*lin + shrink*shrink*quad
			var l1 T
			for i := range u {
				uu := u[i] + shrink*du[i]
				vv := v[i] + shrink*dv[i]
				l1 += uu + vv
			}
			trialObj := trial + 2*lambda*l1
			if trialObj <= prevObj {
				var overlap T
				for i := range u {
					u[i] += shrink * du[i]
					v[i] += shrink * dv[i]
					// Cancel the u/v overlap: x is unchanged, the l1
					// term Σ(u+v) strictly shrinks to ‖x‖₁, keeping the
					// split objective equal to F(x).
					m := u[i]
					if v[i] < m {
						m = v[i]
					}
					if m > 0 {
						u[i] -= m
						v[i] -= m
						overlap += m
					}
				}
				prevObj = trialObj - 4*lambda*overlap
				accepted = true
				break
			}
			shrink /= 2
		}
		if !accepted {
			res.Converged = true // no descent direction left at fp precision
			res.Iterations = k
			break
		}
		// Barzilai-Borwein step for the next round:
		// α = ⟨Δz, Δz⟩ / ⟨Δz, BΔz⟩ with ⟨Δz, BΔz⟩ = ‖A Δx‖².
		var num, den T
		for i := range du {
			su := shrink * du[i]
			sv := shrink * dv[i]
			num += su*su + sv*sv
		}
		for i := range adx {
			s := shrink * adx[i]
			den += s * s
		}
		if den > 0 {
			alpha = num / den
			// Clamp to a sane range around the Lipschitz step.
			lo, hi := T(0.01)/opt.Lipschitz, T(100)/opt.Lipschitz
			if alpha < lo {
				alpha = lo
			}
			if alpha > hi {
				alpha = hi
			}
		}
		refresh()
		res.Iterations = k
		if opt.Trace != nil {
			res.Objective = objective()
			opt.Trace(k, IterSample{Objective: float64(res.Objective)})
		}
		// Convergence: relative step size.
		var stepNorm T
		for i := range du {
			s := shrink * (du[i] - dv[i])
			stepNorm += s * s
		}
		xn := linalg.Norm2(x)
		if xn < 1 {
			xn = 1
		}
		if opt.Tol > 0 && float64(stepNorm) < opt.Tol*opt.Tol*float64(xn*xn) {
			res.Converged = true
			break
		}
		if dl.expired(k) {
			res.DeadlineExpired = true
			break
		}
	}
	linalg.Sub(x, u, v)
	res.X = x
	res.Objective = objective()
	return res, nil
}
