// Package sensing implements the measurement matrices of the CS encoder:
// the paper's sparse binary sensing matrix (the innovation that makes the
// encoder real-time on the MSP430) and the dense Gaussian and Bernoulli
// baselines it is benchmarked against in Fig. 2.
//
// A sparse binary Φ ∈ R^{M×N} has exactly d nonzero entries per column,
// all equal to 1/√d, at pseudo-random row positions. Measuring therefore
// costs d integer additions per input sample — no multiplies, no stored
// matrix — and the decoder regenerates the same support from the shared
// seed. The RIP of Eq. (1) does not hold for such matrices, but the
// RIP-1 property of Berinde et al. does, and empirically (Fig. 2) the
// recovery quality matches Gaussian sensing; package tests check an
// empirical isometry spread on wavelet-sparse vectors.
package sensing

import (
	"fmt"
	"math"

	"csecg/internal/linalg"
	"csecg/internal/rng"
)

// SparseBinary is the sparse binary sensing matrix, stored as the column
// supports only (d row indices per column).
type SparseBinary struct {
	m, n, d int
	// support[c*d ... c*d+d-1] are the ascending row indices of column c.
	support []int32
	scale   float64 //csecg:host decoder-side 1/√d scale, never touched by the mote path
}

// NewSparseBinary builds an M×N sparse binary matrix with d ones per
// column, with supports drawn from a Xoshiro generator seeded with seed.
// Encoder and decoder construct identical matrices from the same
// (m, n, d, seed) tuple. It returns an error if the shape is invalid.
func NewSparseBinary(m, n, d int, seed uint64) (*SparseBinary, error) {
	if err := validateShape(m, n, d); err != nil {
		return nil, err
	}
	//csecg:host the 1/√d scale is computed once for the decoder half
	s := &SparseBinary{m: m, n: n, d: d, support: make([]int32, n*d), scale: 1 / math.Sqrt(float64(d))}
	gen := rng.New(seed)
	rows := make([]int, d)
	for c := 0; c < n; c++ {
		gen.SampleK(rows, d, m)
		for i, r := range rows {
			s.support[c*d+i] = int32(r) //csecg:rangeok SampleK draws from [0, m) and validateShape caps m ≤ n ≪ 2³¹
		}
	}
	return s, nil
}

// NewSparseBinaryLCG builds the matrix from the 16-bit LCG the
// MSP430-class mote uses, so the mote model and the coordinator derive
// bit-identical supports from a 2-byte seed.
func NewSparseBinaryLCG(m, n, d int, seed uint16) (*SparseBinary, error) {
	if err := validateShape(m, n, d); err != nil {
		return nil, err
	}
	//csecg:host the 1/√d scale is computed once for the decoder half
	s := &SparseBinary{m: m, n: n, d: d, support: make([]int32, n*d), scale: 1 / math.Sqrt(float64(d))}
	gen := rng.NewLCG16(seed)
	rows := make([]int, d)
	for c := 0; c < n; c++ {
		gen.SampleK(rows, d, m)
		for i, r := range rows {
			s.support[c*d+i] = int32(r) //csecg:rangeok SampleK draws from [0, m) and validateShape caps m ≤ n ≪ 2³¹
		}
	}
	return s, nil
}

func validateShape(m, n, d int) error {
	switch {
	case m <= 0 || n <= 0:
		return fmt.Errorf("sensing: non-positive shape %dx%d", m, n)
	case m > n:
		return fmt.Errorf("sensing: M=%d > N=%d is not a compression", m, n)
	case d <= 0 || d > m:
		return fmt.Errorf("sensing: column weight d=%d out of [1, M=%d]", d, m)
	}
	return nil
}

// Dims returns (M, N).
func (s *SparseBinary) Dims() (m, n int) { return s.m, s.n }

// ColumnWeight returns d.
func (s *SparseBinary) ColumnWeight() int { return s.d }

// Scale returns the nonzero value 1/√d.
func (s *SparseBinary) Scale() float64 { return s.scale }

// Support returns the ascending row indices of column c (a view; do not
// modify).
func (s *SparseBinary) Support(c int) []int32 {
	return s.support[c*s.d : (c+1)*s.d]
}

// MeasureInt computes the unscaled integer measurement dst = (√d·Φ)·x,
// i.e. dst[r] = Σ_{c: r ∈ supp(c)} x[c], using only integer additions —
// the exact arithmetic the MSP430 encoder performs. The 1/√d scale is
// deferred to the decoder. dst must have length M.
//
//csecg:hotpath the CS measurement stage, N·d integer adds per window
func (s *SparseBinary) MeasureInt(dst []int32, x []int16) {
	if len(dst) != s.m || len(x) != s.n {
		panic("sensing: MeasureInt dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < s.n; c++ {
		v := int32(x[c])
		if v == 0 {
			continue
		}
		for _, r := range s.Support(c) {
			dst[r] += v //csecg:rangeok each row accumulates ≤ d·1024 = 12288 with |x| ≤ 1024 after core's ADC clamp, ≪ 2³¹; a saturating add here would slow the N·d hot loop for a case the clamp excludes
		}
	}
}

// AddMeasureInt is the streaming form of MeasureInt: it accumulates the
// contribution of a single sample x[c] into dst, letting the mote update
// measurements as each ADC sample arrives instead of buffering a window.
//
//csecg:hotpath d integer adds per ADC sample, interrupt context
func (s *SparseBinary) AddMeasureInt(dst []int32, c int, x int16) {
	if len(dst) != s.m {
		panic("sensing: AddMeasureInt dimension mismatch")
	}
	v := int32(x)
	for _, r := range s.Support(c) {
		dst[r] += v //csecg:rangeok same bound as MeasureInt: ≤ d·1024 per row after core's ADC clamp
	}
}

// Op returns the real-valued operator view Φ (with the 1/√d scaling) for
// the solver side, generic over the float width. For float32 on a CPU
// with AVX2 (linalg.HasAVX2) it runs the gather kernels over host-only
// copies of the supports (gatherOp); otherwise it runs loopOp's Go
// loops. Both give the same result bit for bit.
//
//csecg:host the solver-side operator; the mote measures with MeasureInt
func Op[T linalg.Float](s *SparseBinary) linalg.Op[T] {
	if _, f32 := any(T(0)).(float32); f32 && linalg.HasAVX2() {
		return any(gatherOp(s)).(linalg.Op[T])
	}
	return loopOp[T](s)
}

// loopOp is Φ in plain Go loops: Apply scatters each column into its d
// rows; ApplyT gathers them, walking the column supports as consecutive
// d-entry slices of one array. They fix the summation order the gather
// kernels reproduce.
func loopOp[T linalg.Float](s *SparseBinary) linalg.Op[T] {
	scale := T(s.scale)
	return linalg.Op[T]{
		InDim:  s.n,
		OutDim: s.m,
		Apply: func(dst, x []T) {
			if len(dst) != s.m || len(x) != s.n {
				panic("sensing: Op.Apply dimension mismatch")
			}
			for i := range dst {
				dst[i] = 0
			}
			sup, d := s.support, s.d
			for c := 0; c < s.n; c++ {
				col := sup[:d]
				sup = sup[d:]
				v := x[c] * scale
				if v == 0 {
					continue
				}
				for _, r := range col {
					dst[r] += v
				}
			}
		},
		ApplyT: func(dst, y []T) {
			if len(dst) != s.n || len(y) != s.m {
				panic("sensing: Op.ApplyT dimension mismatch")
			}
			sup, d := s.support, s.d
			for c := range dst {
				var acc T
				for _, r := range sup[:d] {
					acc += y[r]
				}
				sup = sup[d:]
				dst[c] = acc * scale
			}
		},
	}
}

// phiGathers holds the two host-only index layouts of Φ for the AVX2
// gather kernels: cols reads each column's d rows (ApplyT), rows each
// row's columns in ascending order (Apply). Apply's row gather adds the
// same terms to each row in the same order as the column scatter; the
// scatter's skip of zero terms changes nothing, since a sum that
// starts at +0 can never become −0 and adding ±0 to it is exact.
type phiGathers struct {
	cols, rows *linalg.Gather8
	scale      float32 //csecg:host the decoder-side 1/√d scale
}

// gatherOp builds Φ on the gather kernels. Callers check
// linalg.HasAVX2 first.
//
//csecg:host decoder-side index layouts and float32 kernels, never on the mote path
func gatherOp(s *SparseBinary) linalg.Op[float32] {
	k := &phiGathers{scale: float32(s.scale)}
	colPtr := make([]int32, s.n+1)
	for c := range colPtr {
		colPtr[c] = int32(c * s.d)
	}
	// Transpose the supports into compressed rows: count, offset, then
	// fill in ascending column order.
	rowPtr := make([]int32, s.m+1)
	for _, r := range s.support {
		rowPtr[r+1]++
	}
	for r := 0; r < s.m; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	rowCols := make([]int32, len(s.support))
	next := append([]int32(nil), rowPtr[:s.m]...)
	for c := 0; c < s.n; c++ {
		for _, r := range s.Support(c) {
			rowCols[next[r]] = int32(c)
			next[r]++
		}
	}
	var err error
	if k.cols, err = linalg.NewGather8(s.m, colPtr, s.support); err != nil {
		panic("sensing: " + err.Error()) // supports are drawn in [0, m)
	}
	if k.rows, err = linalg.NewGather8(s.n, rowPtr, rowCols); err != nil {
		panic("sensing: " + err.Error())
	}
	return linalg.Op[float32]{InDim: s.n, OutDim: s.m, Apply: k.apply, ApplyT: k.applyT}
}

// apply and applyT panic on a dimension mismatch before any kernel
// runs (Gather8 checks both operands).
//
//csecg:host float32 decoder kernel
func (k *phiGathers) apply(dst, x []float32) { k.rows.SumScaled(dst, x, k.scale) }

//csecg:host float32 decoder kernel
func (k *phiGathers) applyT(dst, y []float32) { k.cols.Sum(dst, y, k.scale) }

// MaxColumnCoherence returns the largest normalized inner product between
// two distinct columns, the incoherence diagnostic that guided the
// random support choice. Columns of a sparse binary matrix have unit
// norm, so the inner product is |supp_i ∩ supp_j| / d.
//
//csecg:host offline incoherence diagnostic, not part of the mote path
func (s *SparseBinary) MaxColumnCoherence() float64 {
	// Build row → columns lists once; then count pairwise overlaps via
	// shared rows. O(nnz · avg row degree).
	rowCols := make([][]int32, s.m)
	for c := 0; c < s.n; c++ {
		for _, r := range s.Support(c) {
			rowCols[r] = append(rowCols[r], int32(c))
		}
	}
	overlap := make(map[uint64]int)
	for _, cols := range rowCols {
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				key := uint64(cols[i])<<32 | uint64(cols[j])
				overlap[key]++
			}
		}
	}
	best := 0
	//csecg:orderok max over all values, independent of iteration order
	for _, v := range overlap {
		if v > best {
			best = v
		}
	}
	return float64(best) / float64(s.d)
}
