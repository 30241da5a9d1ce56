package linalg

// Unrolled and branch-free kernels.
//
// These carry two of the three vectorization techniques of Section IV-B
// of the paper:
//
//   - single-loop vectorization with loop peeling for the leftover
//     elements (Fig. 3): Dot4 and Axpy4 advance four lanes at a time and
//     a scalar epilogue handles the n mod 4 tail. Dense and the DCT
//     basis use them. The AVX2 kernels of the Φ and Ψ applies peel the
//     same way, with Go heads and tails around their 8-wide interiors;
//   - if-conversion for the soft-threshold sign selection (Fig. 4):
//     ShrinkBranchless uses comparison results as arithmetic values
//     instead of branches. It is the shrinkage inside the solver's
//     fused FISTA update pass.
//
// The third, outer-loop vectorization of two-level filter loops
// (Fig. 5), lives in the wavelet filter-bank kernels
// (internal/wavelet/loops.go).

// Dot4 is the 4-wide unrolled inner product with four independent
// accumulators, summed once at the end. It computes the same value as
// Dot up to floating-point reassociation.
func Dot4[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic("linalg: Dot4 length mismatch")
	}
	var s0, s1, s2, s3 T
	n4 := len(a) &^ 3
	for i := 0; i < n4; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n4; i < len(a); i++ { // peeled tail
		s += a[i] * b[i]
	}
	return s
}

// Axpy4 is the 4-wide unrolled dst += alpha*x.
func Axpy4[T Float](alpha T, x, dst []T) {
	if len(x) != len(dst) {
		panic("linalg: Axpy4 length mismatch")
	}
	n4 := len(x) &^ 3
	for i := 0; i < n4; i += 4 {
		dst[i] += alpha * x[i]
		dst[i+1] += alpha * x[i+1]
		dst[i+2] += alpha * x[i+2]
		dst[i+3] += alpha * x[i+3]
	}
	for i := n4; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// ShrinkBranchless computes sign(v)·max(|v|−t, 0) without branches:
// comparisons become 0/1 values exactly as in the paper's NEON
// implementation (vcgt + vbsl), which the Go compiler lowers to
// conditional moves. It equals SoftThreshold lane by lane (up to the
// sign of a zero) and is exported for fused solver passes that shrink
// inside a wider update.
func ShrinkBranchless[T Float](v, t T) T {
	av := v
	if av < 0 { // |v|: compiles to ANDPS/conditional move, no branch needed
		av = -v
	}
	m := av - t
	pos := T(0)
	if m > 0 {
		pos = 1
	}
	m *= pos // max(|v|−t, 0) via boolean-as-value multiply
	sgn := T(0)
	if v > 0 {
		sgn = 1
	}
	if v < 0 {
		sgn = -1
	}
	return m * sgn
}
