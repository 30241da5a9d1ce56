package experiments

import (
	"csecg/internal/core"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

// ConvergenceResult reproduces the Section II-B claim: FISTA converges
// at O(1/k²) against ISTA's O(1/k), making real-time recovery feasible.
type ConvergenceResult struct {
	// Iterations checkpoints.
	Checkpoints []int
	// FISTAGap and ISTAGap are objective gaps F(α_k) − F* at each
	// checkpoint (F* approximated by a long FISTA run).
	FISTAGap, ISTAGap []float64
}

// Convergence traces both solvers on one representative CR=50 window.
func Convergence(opt Options) (*ConvergenceResult, error) {
	pr, err := convergenceWindow(opt)
	if err != nil {
		return nil, err
	}
	trace := func(algo func(linalg.Op[float64], []float64, solver.Options[float64]) (solver.Result[float64], error), iters int) ([]float64, error) {
		var vals []float64
		_, err := algo(pr.a, pr.y, solver.Options[float64]{
			MaxIter: iters, Tol: -1, Lambda: pr.lambda, Lipschitz: pr.lip,
			Trace: func(_ int, s solver.IterSample) { vals = append(vals, s.Objective) },
		})
		return vals, err
	}
	fista, err := trace(solver.FISTA[float64], 1200)
	if err != nil {
		return nil, err
	}
	ista, err := trace(solver.ISTA[float64], 1200)
	if err != nil {
		return nil, err
	}
	// F*: best objective seen across a long accelerated run.
	fstar := fista[len(fista)-1]
	for _, v := range fista {
		if v < fstar {
			fstar = v
		}
	}
	res := &ConvergenceResult{Checkpoints: []int{10, 25, 50, 100, 200, 400, 800, 1200}}
	for _, k := range res.Checkpoints {
		res.FISTAGap = append(res.FISTAGap, gapAt(fista, k, fstar))
		res.ISTAGap = append(res.ISTAGap, gapAt(ista, k, fstar))
	}
	return res, nil
}

// l1Problem is one float64 recovery problem min ‖Aα − y‖₂² + λ‖α‖₁
// with its Lipschitz constant.
type l1Problem struct {
	a           linalg.Op[float64]
	y           []float64
	lambda, lip float64
}

// convergenceWindow builds the §II-B problem: the middle window of the
// first record at CR 50, with the solver's default λ = ‖Aᵀy‖∞/1000.
func convergenceWindow(opt Options) (l1Problem, error) {
	opt = opt.withDefaults()
	const n = core.WindowSize
	m := metrics.MForCR(50, n)
	w, err := wavelet.New[float64](core.DefaultWaveletOrder, n, core.DefaultWaveletLevels)
	if err != nil {
		return l1Problem{}, err
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, core.DefaultColumnWeight, 0xCC)
	if err != nil {
		return l1Problem{}, err
	}
	wins, err := windows256(opt.Records[0], opt.SecondsPerRecord, n)
	if err != nil {
		return l1Problem{}, err
	}
	win := wins[len(wins)/2]
	x := make([]float64, n)
	for i, v := range win {
		x[i] = float64(v - core.ADCBaseline)
	}
	phiOp := sensing.Op[float64](phi)
	y := make([]float64, m)
	phiOp.Apply(y, x)
	a := linalg.Compose(phiOp, w.SynthesisOp())
	aty := make([]float64, n)
	a.ApplyT(aty, y)
	return l1Problem{
		a: a, y: y,
		lambda: linalg.NormInf(aty) / 1000,
		lip:    2 * linalg.PowerIterOpNorm(a, 40),
	}, nil
}

func gapAt(trace []float64, k int, fstar float64) float64 {
	if k > len(trace) {
		k = len(trace)
	}
	g := trace[k-1] - fstar
	if g < 0 {
		return 0
	}
	return g
}

// Table renders the result.
func (r *ConvergenceResult) Table() *Table {
	t := &Table{
		Title:  "§II-B — FISTA O(1/k²) vs ISTA O(1/k) on one CR=50 window",
		Note:   "objective gap F(α_k) − F*; the accelerated method reaches working accuracy ~10× sooner",
		Header: []string{"iteration k", "FISTA gap", "ISTA gap", "ratio"},
	}
	for i, k := range r.Checkpoints {
		// A gap that prints as 0.00 is float noise, and a ratio against
		// it would be too.
		fGap := f2(r.FISTAGap[i])
		ratio := "-"
		if fGap != f2(0) {
			ratio = f1(r.ISTAGap[i] / r.FISTAGap[i])
		}
		t.Rows = append(t.Rows, []string{
			f1(float64(k)),
			fGap, f2(r.ISTAGap[i]), ratio,
		})
	}
	return t
}
