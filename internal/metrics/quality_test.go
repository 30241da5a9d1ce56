package metrics_test

import (
	"math"
	"testing"

	"csecg"
	"csecg/internal/metrics"
)

// TestSpearman pins the rank-correlation helper on known cases.
func TestSpearman(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{[]float64{1, 2, 3, 4}, []float64{40, 30, 20, 10}, -1},
		{[]float64{1, 2, 3, 4}, []float64{100, 4, 900, 16}, 0},   // ranks 1,2,3,4 vs 3,1,4,2
		{[]float64{1, 2, 3, 4}, []float64{4, 100, 16, 900}, 0.8}, // ranks 1,2,3,4 vs 1,3,2,4
	}
	for _, c := range cases {
		if got := metrics.Spearman(c.x, c.y); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Spearman(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	if !math.IsNaN(metrics.Spearman([]float64{1}, []float64{2})) {
		t.Error("Spearman of a single point should be NaN")
	}
	// Ties: constant series has zero rank variance.
	if !math.IsNaN(metrics.Spearman([]float64{5, 5, 5}, []float64{1, 2, 3})) {
		t.Error("Spearman of a constant series should be NaN")
	}
}

// estimateRow is one calibrated window: true PRDN against observables.
type estimateRow struct {
	est, prdn float64
}

// gatherRows runs the clean pipeline over one record across the CR
// sweep, returning (estimate, true PRDN) pairs per window.
func gatherRows(t *testing.T, recordID string, crs []float64, seconds float64) []estimateRow {
	t.Helper()
	rec, err := csecg.RecordByID(recordID)
	if err != nil {
		t.Fatal(err)
	}
	adc, err := rec.Channel256(seconds, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []estimateRow
	for _, cr := range crs {
		p := csecg.Params{Seed: 0x601, M: csecg.MForCR(cr, csecg.WindowSize)}
		enc, err := csecg.NewEncoder(p)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := csecg.NewDecoder32(p)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o+csecg.WindowSize <= len(adc); o += csecg.WindowSize {
			win := adc[o : o+csecg.WindowSize]
			pkt, err := enc.EncodeWindow(win)
			if err != nil {
				t.Fatal(err)
			}
			out, err := dec.DecodePacket(pkt)
			if err != nil {
				t.Fatal(err)
			}
			orig := make([]float64, len(win))
			reco := make([]float64, len(win))
			for i := range win {
				orig[i] = float64(win[i])
				reco[i] = float64(out.Samples[i])
			}
			prdn, err := csecg.PRDN(orig, reco)
			if err != nil {
				t.Fatal(err)
			}
			est := metrics.EstimatePRDN(metrics.QualityObservables{
				Residual:   out.ResidualNorm,
				M:          p.M,
				N:          csecg.WindowSize,
				Converged:  out.Converged,
				EscapeRate: float64(out.EscapeCount) / float64(p.M),
			})
			rows = append(rows, estimateRow{est: est, prdn: prdn})
		}
	}
	return rows
}

// TestQualityEstimatorRankAgreement is the calibration pin of the
// ground-truth-free quality estimator: on ≥ 2 MIT-BIH substitute
// records across ≥ 4 compression ratios, the estimate's ordering must
// agree with true PRDN (Spearman ≥ 0.9) and the good/bad decision at
// the paper's 9 % boundary must agree on ≥ 85 % of windows.
func TestQualityEstimatorRankAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("FISTA-heavy calibration sweep")
	}
	crs := []float64{40, 50, 60, 70, 80}
	for _, recordID := range []string{"100", "213"} {
		rows := gatherRows(t, recordID, crs, 16)
		if len(rows) < 4*len(crs) {
			t.Fatalf("record %s: only %d calibration windows", recordID, len(rows))
		}
		ests := make([]float64, len(rows))
		prdns := make([]float64, len(rows))
		agree := 0
		for i, r := range rows {
			ests[i], prdns[i] = r.est, r.prdn
			if (r.est > metrics.GoodPRDN) == (r.prdn > metrics.GoodPRDN) {
				agree++
			}
		}
		rho := metrics.Spearman(ests, prdns)
		t.Logf("record %s: %d windows, Spearman %.3f, boundary agreement %d/%d",
			recordID, len(rows), rho, agree, len(rows))
		if rho < 0.9 {
			t.Errorf("record %s: Spearman %.3f < 0.9 — estimator ordering disagrees with true PRDN", recordID, rho)
		}
		if frac := float64(agree) / float64(len(rows)); frac < 0.85 {
			t.Errorf("record %s: good/bad boundary agreement %.2f < 0.85", recordID, frac)
		}
	}
}

// TestEstimatePRDNProperties pins the estimator's monotone structure
// and degenerate-input behaviour without running the pipeline.
func TestEstimatePRDNProperties(t *testing.T) {
	base := metrics.QualityObservables{Residual: 0.008, M: 256, N: 512, Converged: true}
	e0 := metrics.EstimatePRDN(base)
	if e0 <= 0 {
		t.Fatalf("estimate %v, want > 0", e0)
	}
	worseResidual := base
	worseResidual.Residual = 0.016
	if metrics.EstimatePRDN(worseResidual) <= e0 {
		t.Error("estimate must grow with the residual")
	}
	fewerMeasurements := base
	fewerMeasurements.M = 128
	if metrics.EstimatePRDN(fewerMeasurements) <= e0 {
		t.Error("estimate must grow with undersampling")
	}
	capped := base
	capped.Converged = false
	if metrics.EstimatePRDN(capped) <= e0 {
		t.Error("estimate must grow when the solver hit its budget")
	}
	shifted := base
	shifted.EscapeRate = 0.5
	if metrics.EstimatePRDN(shifted) <= e0 {
		t.Error("estimate must grow with the escape rate")
	}
	lossy := base
	lossy.GapRate = 0.5
	if metrics.EstimatePRDN(lossy) <= e0 {
		t.Error("estimate must grow with the gap rate")
	}
	for _, degenerate := range []metrics.QualityObservables{
		{}, {Residual: 0.01, N: 512}, {Residual: 0.01, M: 256}, {M: 256, N: 512},
	} {
		if got := metrics.EstimatePRDN(degenerate); got != 0 {
			t.Errorf("degenerate observables %+v: estimate %v, want 0", degenerate, got)
		}
	}
	// A typical CR-50 window sits in the paper's "good" band; a
	// CR-90-style window must cross the 9 % boundary.
	if metrics.EstimatePRDN(base) > metrics.GoodPRDN {
		t.Errorf("CR-50-class window misclassified bad (est %.2f)", e0)
	}
	deep := metrics.QualityObservables{Residual: 0.012, M: 51, N: 512, Converged: false}
	if metrics.EstimatePRDN(deep) <= metrics.GoodPRDN {
		t.Errorf("CR-90-class window misclassified good (est %.2f)", metrics.EstimatePRDN(deep))
	}
}
