package solver

import (
	"math"
	"slices"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/rng"
	"csecg/internal/sensing"
	"csecg/internal/wavelet"
)

// productionProblem is a CR 50 window's shape over the production
// operator Compose(Φ, Ψ), with a Gaussian measurement.
func productionProblem(t *testing.T) (linalg.Op[float32], []float32, float32) {
	t.Helper()
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
	return a, y, 2 * linalg.PowerIterOpNorm(a, 30)
}

// TestFISTAIterationsAllocateNothing pins the decoder's inner loop to
// zero heap allocations: a solve over the production operator
// Compose(Φ, Ψ) allocates its per-solve state once, so the count is the
// same at 10 iterations as at 400.
func TestFISTAIterationsAllocateNothing(t *testing.T) {
	a, y, lip := productionProblem(t)
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

// TestWorkspaceSolvesAllocateNothing pins a warm workspace: a FISTA
// solve warm-started from the previous solve's X, with the λ default
// resolved in the workspace, allocates nothing, and a continuation solve
// allocates only the StageIters it returns.
func TestWorkspaceSolvesAllocateNothing(t *testing.T) {
	a, y, lip := productionProblem(t)
	ws := NewWorkspace(a)
	var x []float32
	warm := testing.AllocsPerRun(20, func() {
		r, err := ws.FISTA(y, Options[float32]{MaxIter: 50, Tol: 3e-5, Lipschitz: lip, X0: x})
		if err != nil {
			t.Fatal(err)
		}
		x = r.X
	})
	if warm != 0 {
		t.Errorf("warm workspace FISTA allocates %v times per solve, want 0", warm)
	}
	cont := testing.AllocsPerRun(20, func() {
		r, err := ws.FISTAContinuation(y, Options[float32]{MaxIter: 120, Tol: 3e-5, Lipschitz: lip}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.StageIters) != 6 {
			t.Fatalf("continuation ran %d stages, want 6", len(r.StageIters))
		}
	})
	if cont != 1 {
		t.Errorf("workspace continuation allocates %v times per solve, want 1 (its StageIters)", cont)
	}
}

// TestWorkspaceMatchesFreshSolves runs a sequence of warm-started solves
// three ways: through the package-level wrappers with a caller-owned X0,
// in one workspace with X0 a copy of the previous X, and in one
// workspace with X0 the previous X itself (one of the workspace's own
// buffers). The first and last solves are cold continuations, the last
// one in a workspace that earlier solves left dirty. All three must
// give the same bits.
func TestWorkspaceMatchesFreshSolves(t *testing.T) {
	a, y, lip := productionProblem(t)
	gen := rng.New(9)
	ys := make([][]float32, 6)
	for i := range ys {
		ys[i] = make([]float32, len(y))
		for j := range y {
			ys[i][j] = y[j] + float32(0.1*gen.NormFloat64())
		}
	}
	type run struct {
		x          []float32
		iterations int
		stages     []int
		objective  float32
	}
	solve := func(mode string) []run {
		ws := NewWorkspace(a)
		var out []run
		var x0 []float32
		for i, yi := range ys {
			opt := Options[float32]{MaxIter: 300, Tol: 3e-5, Lipschitz: lip}
			var r Result[float32]
			var err error
			cold := i == 0 || i == len(ys)-1
			switch {
			case cold && mode == "wrapper":
				r, err = FISTAContinuation(a, yi, opt, 6)
			case cold:
				r, err = ws.FISTAContinuation(yi, opt, 6)
			case mode == "wrapper":
				opt.X0 = x0
				r, err = FISTA(a, yi, opt)
			default:
				opt.X0 = x0
				r, err = ws.FISTA(yi, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, run{append([]float32(nil), r.X...), r.Iterations, r.StageIters, r.Objective})
			x0 = r.X
			if mode == "copy" {
				x0 = append([]float32(nil), r.X...)
			}
		}
		return out
	}
	want := solve("wrapper")
	for _, mode := range []string{"copy", "alias"} {
		got := solve(mode)
		for i := range want {
			g, w := got[i], want[i]
			if g.iterations != w.iterations || !slices.Equal(g.stages, w.stages) ||
				math.Float32bits(g.objective) != math.Float32bits(w.objective) {
				t.Fatalf("%s, solve %d: %d iterations (stages %v), objective %v; wrappers gave %d (%v), %v",
					mode, i, g.iterations, g.stages, g.objective, w.iterations, w.stages, w.objective)
			}
			for j := range w.x {
				if math.Float32bits(g.x[j]) != math.Float32bits(w.x[j]) {
					t.Fatalf("%s, solve %d: x[%d] = %v, wrappers gave %v", mode, i, j, g.x[j], w.x[j])
				}
			}
		}
	}
}
