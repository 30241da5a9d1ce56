// The dense Gaussian baseline exists only for the paper's Fig. 2
// comparison and runs host-side; the mote never materializes it.
//csecg:host the dense baseline is a host-side reference model

package sensing

import (
	"math"

	"csecg/internal/linalg"
	"csecg/internal/rng"
)

// NewGaussian returns the dense Gaussian baseline sensing matrix with
// i.i.d. N(0, 1/N) entries, as specified in Section II-A of the paper.
// This is the "optimal" reference of Fig. 2: excellent RIP behaviour,
// prohibitively expensive on the mote (M·N multiplies and a stored, or
// regenerated, dense matrix).
func NewGaussian[T linalg.Float](m, n int, seed uint64) (*linalg.Dense[T], error) {
	if err := validateShape(m, n, 1); err != nil {
		return nil, err
	}
	gen := rng.New(seed)
	sigma := 1 / math.Sqrt(float64(n))
	mat := linalg.NewDense[T](m, n)
	for i := 0; i < m; i++ {
		row := mat.Row(i)
		for j := range row {
			row[j] = T(gen.NormFloat64() * sigma)
		}
	}
	return mat, nil
}
