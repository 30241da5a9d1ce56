package wavelet

import (
	"sync"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/sensing"
	"csecg/internal/solver"
)

// TestSharedOperatorsConcurrent checks the operators' concurrency
// contract as the Fig. 2 experiment uses it: four goroutines share the
// read-only Φ and filter taps, and each builds its own Transform and
// Compose, whose scratch serves one goroutine at a time. Every result
// must equal the serial run's bit for bit; state written through a
// shared value would corrupt results here and trip the race detector
// (make race runs this test under -race -count=10). The float32
// instantiation drives the AVX2 gather and filter-bank kernels, and
// their stack-held tail scratch, where the CPU has AVX2.
func TestSharedOperatorsConcurrent(t *testing.T) {
	t.Run("float32", sharedOperatorsConcurrent[float32])
	t.Run("float64", sharedOperatorsConcurrent[float64])
}

func sharedOperatorsConcurrent[T linalg.Float](t *testing.T) {
	const n, m, workers, reps = 512, 256, 4, 3
	taps, err := New[T](4, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	phiOp := sensing.Op[T](phi)
	lip := 2 * linalg.PowerIterOpNorm(linalg.Compose(phiOp, taps.SynthesisOp()), 30)

	type output struct{ alpha, signal, coeffs []T }
	// operators builds one goroutine's Transform, sharing taps' filters,
	// and the CS operator composed over it.
	operators := func() (*Transform[T], linalg.Op[T], error) {
		w, err := New[T](4, n, 5)
		if err != nil {
			return nil, linalg.Op[T]{}, err
		}
		w.h, w.g = taps.h, taps.g
		return w, linalg.Compose(phiOp, w.SynthesisOp()), nil
	}
	run := func(w *Transform[T], a linalg.Op[T], job int) (output, error) {
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
	serialW, serialA, err := operators()
	if err != nil {
		t.Fatal(err)
	}
	for job := range want {
		if want[job], err = run(serialW, serialA, job); err != nil {
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
			w, a, err := operators()
			if err != nil {
				errs[job] = err
				return
			}
			for rep := 0; rep < reps; rep++ {
				out, err := run(w, a, job)
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
