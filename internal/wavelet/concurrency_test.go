package wavelet

import (
	"sync"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/sensing"
	"csecg/internal/solver"
)

// TestSharedOperatorsConcurrent drives one composed CS operator and one
// Transform from four goroutines at once, as the Fig. 2 experiment
// fans them across records, and requires every result to equal the
// serial run's bit for bit. Both borrow their scratch vectors from
// pools; a scratch buffer shared between goroutines would corrupt
// results here and trip the race detector (make race runs this test
// under -race -count=10). The float32 instantiation drives the AVX2
// gather and filter-bank kernels, and their stack-held tail scratch,
// where the CPU has AVX2.
func TestSharedOperatorsConcurrent(t *testing.T) {
	t.Run("float32", sharedOperatorsConcurrent[float32])
	t.Run("float64", sharedOperatorsConcurrent[float64])
}

func sharedOperatorsConcurrent[T linalg.Float](t *testing.T) {
	const n, m, workers, reps = 512, 256, 4, 3
	w, err := New[T](4, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.Compose(sensing.Op[T](phi), w.SynthesisOp())
	lip := 2 * linalg.PowerIterOpNorm(a, 30)

	type output struct{ alpha, signal, coeffs []T }
	run := func(job int) (output, error) {
		x := ecgLike[T](n, uint64(job+1))
		y := make([]T, m)
		a.Apply(y, x)
		r, err := solver.FISTA(a, y, solver.Options[T]{MaxIter: 40, Tol: -1, Lipschitz: lip})
		if err != nil {
			return output{}, err
		}
		out := output{alpha: r.X, signal: make([]T, n), coeffs: make([]T, n)}
		w.Inverse(out.signal, r.X)
		w.Forward(out.coeffs, x)
		return out, nil
	}

	want := make([]output, workers)
	for job := range want {
		var err error
		if want[job], err = run(job); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]output, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for job := 0; job < workers; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				out, err := run(job)
				if err != nil {
					errs[job] = err
					return
				}
				got[job] = append(got[job], out)
			}
		}()
	}
	wg.Wait()
	for job := range got {
		if errs[job] != nil {
			t.Fatal(errs[job])
		}
		for _, out := range got[job] {
			requireSameBits(t, "concurrent FISTA solution", out.alpha, want[job].alpha)
			requireSameBits(t, "concurrent Inverse", out.signal, want[job].signal)
			requireSameBits(t, "concurrent Forward", out.coeffs, want[job].coeffs)
		}
	}
}
