package linalg

// Dense is a row-major dense matrix. The CS pipeline only needs it for
// the Gaussian sensing baseline (the sparse binary path never
// materializes a matrix), so the API is deliberately small: construction,
// element access and the two matrix-vector products the solver needs.
type Dense[T Float] struct {
	rows, cols int
	data       []T
}

// NewDense allocates a rows×cols zero matrix. It panics if either
// dimension is not positive.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows <= 0 || cols <= 0 {
		panic("linalg: NewDense with non-positive dimension")
	}
	return &Dense[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense[T]) Cols() int { return m.cols }

// Set assigns the element at (i, j).
func (m *Dense[T]) Set(i, j int, v T) { m.data[i*m.cols+j] = v }

// Row returns a view of row i; mutations through the returned slice
// mutate the matrix.
func (m *Dense[T]) Row(i int) []T { return m.data[i*m.cols : (i+1)*m.cols] }

// MatVec computes dst = M·x. It panics on dimension mismatch.
func (m *Dense[T]) MatVec(dst, x []T) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic("linalg: MatVec dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Dot4(m.Row(i), x)
	}
}

// MatTVec computes dst = Mᵀ·x. It panics on dimension mismatch.
func (m *Dense[T]) MatTVec(dst, x []T) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic("linalg: MatTVec dimension mismatch")
	}
	Fill(dst, 0)
	for i := 0; i < m.rows; i++ {
		Axpy4(x[i], m.Row(i), dst)
	}
}
