// Package linalg provides the small dense linear-algebra kernels the CS
// reconstruction uses: vector arithmetic, dense matrix-vector products
// for the Gaussian sensing baseline, and operator-norm estimation.
//
// kernels4.go holds the unrolled (Dot4, Axpy4) and if-converted
// (ShrinkBranchless) shapes of the paper's vectorization study
// (Section IV-B, Figs. 3-4); their micro-benchmarks run next to the
// plain loops. Gather8 sums the sparse sensing matrix's rows 8 lanes
// wide, on AVX2 kernels where the CPU has them. Which kernel runs never
// depends on the VFP or NEON build the cycle model in
// internal/coordinator prices.
//
// All kernels are generic over float32 and float64 so the same solver
// code instantiates as the paper's "iPhone (32-bit)" and "Matlab
// (64-bit)" configurations.
package linalg

import "math"

// Float is the constraint shared by all numeric kernels in this module.
type Float interface {
	~float32 | ~float64
}

// Dot returns the inner product of a and b. It panics if the lengths
// differ.
func Dot[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s T
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst[i] += alpha*x[i]. It panics if the lengths differ.
func Axpy[T Float](alpha T, x, dst []T) {
	if len(x) != len(dst) {
		panic("linalg: Axpy length mismatch")
	}
	for i := range x {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of dst by alpha.
func Scale[T Float](alpha T, dst []T) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// Sub stores a−b into dst. All three slices must have equal length.
func Sub[T Float](dst, a, b []T) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("linalg: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Norm2 returns the Euclidean norm of x, with scaling to avoid overflow
// for float32 inputs.
func Norm2[T Float](x []T) T {
	var maxAbs T
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s T
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * T(math.Sqrt(float64(s)))
}

// DistNorm2 returns ‖a−b‖₂ without scratch storage. It recomputes each
// difference in both of Norm2's passes, so it equals Norm2 of Sub(a, b)
// bit for bit; the solver's stopping rule depends on that.
func DistNorm2[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic("linalg: DistNorm2 length mismatch")
	}
	b = b[:len(a)]
	var maxAbs T
	for i := range a {
		v := a[i] - b[i]
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s T
	for i := range a {
		r := (a[i] - b[i]) / maxAbs
		s += r * r
	}
	return maxAbs * T(math.Sqrt(float64(s)))
}

// Norm1 returns the sum of absolute values of x.
func Norm1[T Float](x []T) T {
	var s T
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		s += v
	}
	return s
}

// NormInf returns the maximum absolute value of x.
func NormInf[T Float](x []T) T {
	var m T
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// SoftThreshold applies the scalar shrinkage operator
// y[i] = sign(u[i])·max(|u[i]|−t, 0), the prox of t·‖·‖₁. This is the
// branchy reference version the paper's Section IV-B.2a starts from.
func SoftThreshold[T Float](dst, u []T, t T) {
	if len(dst) != len(u) {
		panic("linalg: SoftThreshold length mismatch")
	}
	for i, v := range u {
		switch {
		case v > t:
			dst[i] = v - t
		case v < -t:
			dst[i] = v + t
		default:
			dst[i] = 0
		}
	}
}

// CopyInto copies src into dst, panicking on length mismatch. A thin
// wrapper over copy that catches silent truncation bugs in solver code.
func CopyInto[T Float](dst, src []T) {
	if len(dst) != len(src) {
		panic("linalg: CopyInto length mismatch")
	}
	copy(dst, src)
}

// Fill sets every element of dst to v.
func Fill[T Float](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}

// MaxAbsDiff returns max_i |a[i]−b[i]|, used for convergence checks and
// test assertions.
func MaxAbsDiff[T Float](a, b []T) T {
	if len(a) != len(b) {
		panic("linalg: MaxAbsDiff length mismatch")
	}
	var m T
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
