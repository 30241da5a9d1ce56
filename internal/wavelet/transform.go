package wavelet

import (
	"fmt"

	"csecg/internal/linalg"
)

// Transform is a multi-level periodized orthonormal DWT over signals of a
// fixed length. It is generic over float32/float64 so the decoder can be
// instantiated at both the "iPhone (32-bit)" and "Matlab (64-bit)"
// precisions of the paper's Fig. 6.
//
// Coefficient layout of a forward transform with L levels over length-N
// signals, matching the conventional pyramid order:
//
//	[ a_L | d_L | d_{L−1} | … | d_1 ]
//
// where a_L has N/2^L entries and d_j has N/2^j entries.
type Transform[T linalg.Float] struct {
	h, g   []T // analysis low/high-pass filters
	n      int
	levels int
	// scratch is the level buffer of Forward and Inverse, n+taps−2
	// entries: Forward extends each level's input periodically by taps−2
	// samples. Because the Transform owns it, one Transform serves one
	// goroutine at a time.
	scratch []T
}

// New builds a Daubechies-order transform for length-n signals with the
// given number of decomposition levels. n must be divisible by 2^levels
// and the coarsest block must still be at least as long as the filter
// (2·order taps) for the periodization to stay orthonormal.
func New[T linalg.Float](order, n, levels int) (*Transform[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("wavelet: signal length %d must be positive", n)
	}
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels %d must be at least 1", levels)
	}
	if n%(1<<uint(levels)) != 0 {
		return nil, fmt.Errorf("wavelet: length %d not divisible by 2^%d", n, levels)
	}
	h64, err := DaubechiesFilter(order)
	if err != nil {
		return nil, err
	}
	if coarse := n >> uint(levels); coarse < len(h64) {
		return nil, fmt.Errorf("wavelet: coarsest block %d shorter than %d-tap filter; reduce levels", coarse, len(h64))
	}
	g64 := QMF(h64)
	t := &Transform[T]{
		h:       make([]T, len(h64)),
		g:       make([]T, len(g64)),
		n:       n,
		levels:  levels,
		scratch: make([]T, n+len(h64)-2),
	}
	for i := range h64 {
		t.h[i] = T(h64[i])
		t.g[i] = T(g64[i])
	}
	return t, nil
}

// MaxLevels returns the deepest decomposition admissible for a
// Daubechies-order transform on length-n signals.
func MaxLevels(order, n int) int {
	taps := 2 * order
	levels := 0
	for n%2 == 0 && n/2 >= taps {
		n /= 2
		levels++
	}
	return levels
}

// Len returns the signal length the transform operates on.
func (t *Transform[T]) Len() int { return t.n }

// Forward computes the analysis transform (Ψᵀ for the orthonormal basis):
// dst receives the coefficient pyramid of x. dst and x must both have
// length Len() and may not alias.
func (t *Transform[T]) Forward(dst, x []T) {
	if len(dst) != t.n || len(x) != t.n {
		panic("wavelet: Forward length mismatch")
	}
	buf := t.scratch
	// Each level reads its input from buf, followed by its first taps−2
	// samples again: level 1 reads x, each later level the previous
	// level's approximation, copied out of dst before dst[:n] is
	// overwritten. The last approximation stays in place as a_L.
	ext := len(t.h) - 2
	copy(buf, x)
	n := t.n
	for lev := 0; lev < t.levels; lev++ {
		copy(buf[n:n+ext], buf[:ext])
		analyzeSplit(dst[:n], buf[:n+ext], t.h, t.g)
		n /= 2
		copy(buf[:n], dst[:n])
	}
}

// Inverse computes the synthesis transform Ψ: dst receives the signal
// whose coefficient pyramid is coeffs. dst and coeffs must both have
// length Len() and may not alias.
func (t *Transform[T]) Inverse(dst, coeffs []T) {
	if len(dst) != t.n || len(coeffs) != t.n {
		panic("wavelet: Inverse length mismatch")
	}
	buf := t.scratch
	// The coarsest level reads a_L from coeffs; each finer level reads
	// the approximation the previous one rebuilt, copied out of dst.
	n := t.n >> uint(t.levels)
	a := coeffs[:n]
	for ; 2*n < t.n; n *= 2 {
		synthesizeSplit(dst[:2*n], a, coeffs[n:2*n], t.h, t.g)
		a = buf[:2*n]
		copy(a, dst[:2*n])
	}
	synthesizeSplit(dst, a, coeffs[n:], t.h, t.g)
}

// SynthesisOp exposes Ψ as a linalg.Op: Apply is the synthesis (inverse)
// transform mapping coefficients to samples, ApplyT the analysis
// transform. For an orthonormal wavelet the adjoint equals the inverse,
// which the tests assert via linalg.AdjointMismatch.
func (t *Transform[T]) SynthesisOp() linalg.Op[T] {
	return linalg.Op[T]{
		InDim:  t.n,
		OutDim: t.n,
		Apply:  func(dst, x []T) { t.Inverse(dst, x) },
		ApplyT: func(dst, y []T) { t.Forward(dst, y) },
	}
}
