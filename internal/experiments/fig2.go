package experiments

import (
	"csecg/internal/core"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

// Fig2Point is one (CR, SNR) sample of a sensing-matrix family.
type Fig2Point struct {
	CR                  float64
	SparseSNR, GaussSNR float64
}

// Fig2Result reproduces Fig. 2: average output SNR versus compression
// ratio for sparse binary sensing (d = 12) against dense Gaussian
// sensing, both recovered with the float64 FISTA reference.
type Fig2Result struct {
	Points []Fig2Point
}

// Fig2 runs the experiment. The paper's claim: the two curves coincide —
// sparse binary sensing costs nothing in recovery quality while being
// integer-only and matrix-free on the mote.
func Fig2(opt Options) (*Fig2Result, error) {
	opt = opt.withDefaults()
	const n = core.WindowSize
	res := &Fig2Result{}
	for cr := 50.0; cr <= 80.0; cr += 5 {
		m := metrics.MForCR(cr, n)
		sparse, err := sensing.NewSparseBinaryLCG(m, n, core.DefaultColumnWeight, 0x5EED)
		if err != nil {
			return nil, err
		}
		gauss, err := sensing.NewGaussian[float64](m, n, 0xA0A0)
		if err != nil {
			return nil, err
		}
		sparseOp := sensing.Op[float64](sparse)
		gaussOp := linalg.OpFromDense(gauss)
		sSNR, err := meanRecoverySNR(opt, sparseOp, n, m)
		if err != nil {
			return nil, err
		}
		gSNR, err := meanRecoverySNR(opt, gaussOp, n, m)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig2Point{CR: cr, SparseSNR: sSNR, GaussSNR: gSNR})
	}
	return res, nil
}

// meanRecoverySNR measures mean reconstruction SNR over the option's
// record windows for one sensing operator. phi must be safe to apply
// from several goroutines at once: it is shared across records.
func meanRecoverySNR(opt Options, phi linalg.Op[float64], n, m int) (float64, error) {
	newOp := func() (*wavelet.Transform[float64], linalg.Op[float64], error) {
		w, err := wavelet.New[float64](core.DefaultWaveletOrder, n, core.DefaultWaveletLevels)
		if err != nil {
			return nil, linalg.Op[float64]{}, err
		}
		return w, linalg.Compose(phi, w.SynthesisOp()), nil
	}
	_, lipOp, err := newOp()
	if err != nil {
		return 0, err
	}
	lip := 2 * linalg.PowerIterOpNorm(lipOp, 30)
	// Records are independent; fan them out over the CPU. Each record
	// builds its own Transform and Compose, whose scratch serves one
	// goroutine at a time; Φ is only read.
	type recordSNR struct {
		sum   float64
		count int
	}
	results, err := forEachRecord(opt.Records, func(id string) (recordSNR, error) {
		var acc recordSNR
		w, a, err := newOp()
		if err != nil {
			return acc, err
		}
		wins, err := windows256(id, opt.SecondsPerRecord, n)
		if err != nil {
			return acc, err
		}
		var warm []float64
		for _, win := range wins {
			x := make([]float64, n)
			for i, v := range win {
				x[i] = float64(v - core.ADCBaseline)
			}
			y := make([]float64, m)
			phi.Apply(y, x)
			sopt := solver.Options[float64]{MaxIter: 2400, Tol: 1e-5, Lipschitz: lip, X0: warm}
			var r solver.Result[float64]
			var err error
			if warm == nil {
				r, err = solver.FISTAContinuation(a, y, sopt, 6)
			} else {
				r, err = solver.FISTA(a, y, sopt)
			}
			if err != nil {
				return acc, err
			}
			warm = r.X
			xhat := make([]float64, n)
			w.Inverse(xhat, r.X)
			orig := make([]float64, n)
			reco := make([]float64, n)
			for i := range win {
				orig[i] = float64(win[i])
				reco[i] = xhat[i] + core.ADCBaseline
			}
			prdn, err := metrics.PRDN(orig, reco)
			if err != nil {
				return acc, err
			}
			acc.sum += metrics.SNR(prdn)
			acc.count++
		}
		return acc, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	var count int
	for _, r := range results {
		sum += r.sum
		count += r.count
	}
	return sum / float64(count), nil
}

// Table renders the result.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Fig. 2 — Output SNR vs CR: sparse binary (d=12) vs Gaussian sensing",
		Note:   "float64 FISTA recovery; SNR from mean-removed PRD, averaged over records/windows",
		Header: []string{"CR (%)", "Sparse SNR (dB)", "Gaussian SNR (dB)", "Δ (dB)"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			f1(p.CR), f2(p.SparseSNR), f2(p.GaussSNR), f2(p.SparseSNR - p.GaussSNR),
		})
	}
	return t
}
