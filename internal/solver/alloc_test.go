package solver

import (
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/rng"
	"csecg/internal/sensing"
	"csecg/internal/wavelet"
)

// TestFISTAIterationsAllocateNothing pins the decoder's inner loop to
// zero heap allocations: a solve over the production operator
// Compose(Φ, Ψ) allocates its per-solve state once, so the count is the
// same at 10 iterations as at 400.
func TestFISTAIterationsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	const n, m = 512, 256
	w, err := wavelet.New[float32](4, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.Compose(sensing.Op[float32](phi), w.SynthesisOp())
	gen := rng.New(3)
	y := make([]float32, m)
	for i := range y {
		y[i] = float32(gen.NormFloat64())
	}
	lip := 2 * linalg.PowerIterOpNorm(a, 30)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			r, err := FISTA(a, y, Options[float32]{MaxIter: iters, Tol: -1, Lambda: 0.01, Lipschitz: lip})
			if err != nil {
				t.Fatal(err)
			}
			if r.Iterations != iters {
				t.Fatalf("ran %d iterations, want %d", r.Iterations, iters)
			}
		})
	}
	short, long := allocs(10), allocs(400)
	if short != long {
		t.Errorf("FISTA allocates %v times at 10 iterations and %v at 400; the iteration loop must not allocate", short, long)
	}
}
