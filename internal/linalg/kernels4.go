package linalg

// 4-wide unrolled, branch-free kernel variants.
//
// These reproduce the three vectorization techniques of Section IV-B of
// the paper on the reconstruction hot loops:
//
//   - single-loop vectorization with loop peeling for the leftover
//     elements (Fig. 3): the main loop advances four lanes at a time and
//     a scalar epilogue handles the n mod 4 tail;
//   - if-conversion for the soft-threshold sign selection (Fig. 4): the
//     comparison results are used as arithmetic values instead of
//     branches, so all four lanes follow the same instruction stream;
//   - outer-loop vectorization of two-level filter loops (Fig. 5),
//     implemented by the wavelet filter-bank kernels in
//     internal/wavelet/loops.go.
//
// The shapes here intentionally match what a NEON (or SSE) build would
// emit; internal/coordinator charges them NEON cycle costs when modeling
// the iPhone decode time.

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

// SoftThreshold4 is the branch-free 4-wide shrinkage operator. Following
// the paper's if-conversion (Fig. 4), the magnitude is shrunk with a
// boolean-as-value multiply and the sign of the input is re-applied by
// selecting between +1 and −1 comparisons, so the loop body contains no
// data-dependent branch.
func SoftThreshold4[T Float](dst, u []T, t T) {
	if len(dst) != len(u) {
		panic("linalg: SoftThreshold4 length mismatch")
	}
	n4 := len(u) &^ 3
	for i := 0; i < n4; i += 4 {
		dst[i] = shrinkBranchless(u[i], t)
		dst[i+1] = shrinkBranchless(u[i+1], t)
		dst[i+2] = shrinkBranchless(u[i+2], t)
		dst[i+3] = shrinkBranchless(u[i+3], t)
	}
	for i := n4; i < len(u); i++ {
		dst[i] = shrinkBranchless(u[i], t)
	}
}

// shrinkBranchless computes sign(v)·max(|v|−t, 0) without branches:
// comparisons become 0/1 values exactly as in the paper's NEON
// implementation (vcgt + vbsl), which the Go compiler lowers to
// conditional moves.
func shrinkBranchless[T Float](v, t T) T {
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

// Sub4 is the 4-wide unrolled dst = a − b.
func Sub4[T Float](dst, a, b []T) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("linalg: Sub4 length mismatch")
	}
	n4 := len(a) &^ 3
	for i := 0; i < n4; i += 4 {
		dst[i] = a[i] - b[i]
		dst[i+1] = a[i+1] - b[i+1]
		dst[i+2] = a[i+2] - b[i+2]
		dst[i+3] = a[i+3] - b[i+3]
	}
	for i := n4; i < len(a); i++ {
		dst[i] = a[i] - b[i]
	}
}

// Combine4 computes dst = a + beta*(a − b), the FISTA momentum update
// (Eq. 6 of the paper), fused into a single pass and unrolled 4-wide.
func Combine4[T Float](dst, a, b []T, beta T) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("linalg: Combine4 length mismatch")
	}
	n4 := len(a) &^ 3
	for i := 0; i < n4; i += 4 {
		dst[i] = a[i] + beta*(a[i]-b[i])
		dst[i+1] = a[i+1] + beta*(a[i+1]-b[i+1])
		dst[i+2] = a[i+2] + beta*(a[i+2]-b[i+2])
		dst[i+3] = a[i+3] + beta*(a[i+3]-b[i+3])
	}
	for i := n4; i < len(a); i++ {
		dst[i] = a[i] + beta*(a[i]-b[i])
	}
}
