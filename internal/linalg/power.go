package linalg

import "math"

// Op is a linear operator presented as a pair of closures: Apply computes
// dst = A·x and ApplyT computes dst = Aᵀ·y. The CS reconstruction never
// materializes A = ΦΨ; both sensing and wavelet stages expose this
// interface instead (the paper's contribution (1): no large dense
// matrix operations at recovery).
type Op[T Float] struct {
	// InDim is the domain dimension (length of x in Apply).
	InDim int
	// OutDim is the range dimension (length of dst in Apply).
	OutDim int
	// Apply computes dst = A·x. len(x) == InDim, len(dst) == OutDim.
	Apply func(dst, x []T)
	// ApplyT computes dst = Aᵀ·y. len(y) == OutDim, len(dst) == InDim.
	ApplyT func(dst, y []T)
}

// PowerIterOpNorm estimates ‖A‖₂² = λ_max(AᵀA) by power iteration, which
// is the Lipschitz constant of ∇‖Ax−y‖₂² up to the factor 2. The
// iteration starts from a deterministic pseudo-random vector so the
// estimate (and therefore the whole reconstruction) is reproducible.
// iters around 30 gives 3 significant digits for the well-conditioned
// CS operators in this codebase.
func PowerIterOpNorm[T Float](a Op[T], iters int) T {
	if iters <= 0 {
		iters = 30
	}
	v := make([]T, a.InDim)
	// Deterministic start vector with sign flips to avoid being
	// orthogonal to the top eigenvector.
	state := uint64(0x1234_5678_9abc_def1)
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[i] = T(int64(state%2001)-1000) / 1000
	}
	tmp := make([]T, a.OutDim)
	next := make([]T, a.InDim)
	var lambda T
	for k := 0; k < iters; k++ {
		a.Apply(tmp, v)
		a.ApplyT(next, tmp)
		lambda = Norm2(next)
		if lambda == 0 {
			return 0 // A maps the start vector to zero; treat as null operator
		}
		Scale(1/lambda, next)
		v, next = next, v
	}
	return lambda
}

// OpFromDense wraps a Dense matrix as an Op, for the Gaussian-sensing
// baseline and for tests that compare operator and matrix paths.
func OpFromDense[T Float](m *Dense[T]) Op[T] {
	return Op[T]{
		InDim:  m.Cols(),
		OutDim: m.Rows(),
		Apply:  func(dst, x []T) { m.MatVec(dst, x) },
		ApplyT: func(dst, y []T) { m.MatTVec(dst, y) },
	}
}

// Compose returns the operator (outer ∘ inner): x ↦ outer(inner(x)).
// The CS recovery operator is Compose(Φ, Ψ) with Ψ the inverse-wavelet
// synthesis operator.
//
// The returned operator owns one intermediate vector, allocated here,
// so its applies allocate nothing. It serves one goroutine at a time:
// concurrent callers each compose their own.
func Compose[T Float](outer, inner Op[T]) Op[T] {
	if inner.OutDim != outer.InDim {
		panic("linalg: Compose dimension mismatch")
	}
	mid := make([]T, inner.OutDim)
	return Op[T]{
		InDim:  inner.InDim,
		OutDim: outer.OutDim,
		Apply: func(dst, x []T) {
			inner.Apply(mid, x)
			outer.Apply(dst, mid)
		},
		ApplyT: func(dst, y []T) {
			outer.ApplyT(mid, y)
			inner.ApplyT(dst, mid)
		},
	}
}

// AdjointMismatch measures max |⟨A·x, y⟩ − ⟨x, Aᵀ·y⟩| over a few random
// probe pairs, normalized by the probe magnitudes. A correct adjoint
// pair returns a value at the level of floating-point round-off; solver
// construction asserts this in tests to catch transposition bugs.
func AdjointMismatch[T Float](a Op[T], probes int) float64 {
	if probes <= 0 {
		probes = 3
	}
	state := uint64(0xfeed_face_cafe_beef)
	randv := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			v[i] = T(int64(state%2001)-1000) / 1000
		}
		return v
	}
	var worst float64
	for p := 0; p < probes; p++ {
		x := randv(a.InDim)
		y := randv(a.OutDim)
		ax := make([]T, a.OutDim)
		aty := make([]T, a.InDim)
		a.Apply(ax, x)
		a.ApplyT(aty, y)
		lhs := float64(Dot(ax, y))
		rhs := float64(Dot(x, aty))
		scale := math.Max(math.Abs(lhs), math.Abs(rhs))
		if scale == 0 {
			scale = 1
		}
		if d := math.Abs(lhs-rhs) / scale; d > worst {
			worst = d
		}
	}
	return worst
}
