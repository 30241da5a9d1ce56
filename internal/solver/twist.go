package solver

import (
	"fmt"
	"math"

	"csecg/internal/linalg"
)

// TwISTOptions extends Options with the two-step parameters.
type TwISTOptions[T linalg.Float] struct {
	Options[T]
	// Xi1 is the assumed lower bound on the eigenvalues of the
	// normalized AᵀA (the κ⁻¹ of Bioucas-Dias & Figueiredo 2007). CS
	// operators with M < N are singular, so the practical value is a
	// small positive constant; 1e-2 (the TwIST authors' recommendation
	// for severely ill-posed problems) is the default.
	Xi1 float64
}

// TwIST minimizes F(α) = ‖Aα−y‖₂² + λ‖α‖₁ with the two-step iterative
// shrinkage/thresholding algorithm (the paper's reference [15], cited as
// one of the ISTA accelerations alongside FISTA). Each iterate mixes the
// previous two iterates with the IST step:
//
//	α_{t+1} = (1−γ)·α_{t−1} + (γ−β)·α_t + β·Γ(α_t)
//
// with γ, β derived from the assumed spectral bounds. A monotone
// safeguard falls back to the plain IST step whenever the two-step
// update would increase the objective (the "monotone TwIST" variant),
// which keeps the method stable on singular CS operators.
func TwIST[T linalg.Float](a linalg.Op[T], y []T, opt TwISTOptions[T]) (Result[T], error) {
	st, err := newState(a, y, &opt.Options)
	if err != nil {
		return Result[T]{}, err
	}
	if opt.Xi1 <= 0 || opt.Xi1 > 1 {
		opt.Xi1 = 1e-2
	}
	// Two-step parameters: ρ = (1−ξ₁)/(1+ξ₁) on the normalized
	// spectrum, γ (the authors' α) = 2/(1+√(1−ρ²)), β = 2γ/(ξ₁+1).
	rho := (1 - opt.Xi1) / (1 + opt.Xi1)
	gamma := T(2 / (1 + math.Sqrt(1-rho*rho)))
	beta := gamma * T(2/(opt.Xi1+1))

	n := a.InDim
	prev := make([]T, n)   // α_{t−1}
	cur := make([]T, n)    // α_t
	next := make([]T, n)   // α_{t+1}
	grad := make([]T, n)   // ∇f buffer
	gammaT := make([]T, n) // Γ(α_t)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), n)
		}
		copy(prev, opt.X0)
		copy(cur, opt.X0)
	}
	dl := newDeadline(&opt.Options)
	res := Result[T]{Lambda: opt.Lambda, Lipschitz: opt.Lipschitz}
	objCur := st.objective(cur, opt.Lambda)
	for k := 1; k <= opt.MaxIter; k++ {
		// IST step Γ(α_t) with the 1/L normalized gradient.
		st.gradient(grad, cur)
		copy(gammaT, cur)
		linalg.Axpy(-1/opt.Lipschitz, grad, gammaT)
		linalg.SoftThreshold(gammaT, gammaT, opt.Lambda/opt.Lipschitz)
		// Two-step combination.
		for i := range next {
			next[i] = (1-gamma)*prev[i] + (gamma-beta)*cur[i] + beta*gammaT[i]
		}
		objNext := st.objective(next, opt.Lambda)
		if objNext > objCur {
			// Monotone safeguard: take the plain IST step instead.
			copy(next, gammaT)
			objNext = st.objective(next, opt.Lambda)
		}
		res.Iterations = k
		if opt.Monitor != nil {
			opt.Monitor(k, objNext)
		}
		if st.converged(next, cur, opt.Tol) {
			prev, cur = cur, next
			objCur = objNext
			res.Converged = true
			break
		}
		if dl.expired(k) {
			prev, cur = cur, next
			objCur = objNext
			res.DeadlineExpired = true
			break
		}
		prev, cur, next = cur, next, prev
		objCur = objNext
	}
	res.X = cur
	res.Objective = objCur
	return res, nil
}
