package metrics

import "math"

// This file implements ground-truth-free reconstruction-quality
// scoring: a per-window PRDN estimate computed decoder-side from
// observables only, so a live monitor can flag degraded reconstruction
// without the original signal (which, by construction of compressed
// sensing, the coordinator never has).
//
// The estimator's core is a log-linear model fit against true PRDN on
// substitute MIT-BIH records across compression ratios 40-90%:
//
//	log PRDN ≈ a + b·log r + c·log(N/M) + d·[not converged]
//
// where r = ‖ΦΨα − y‖₂/‖y‖₂ is the normalized final FISTA residual.
// The two terms mirror the structure of CS error bounds: the residual
// measures how well the solve explained the measurements, and the
// undersampling ratio (N/M)^c prices the null-space error a
// measurement-domain residual cannot see. Escape-symbol rate and
// transport gap rate — the distribution-shift and loss observables —
// widen the estimate multiplicatively as safety margin; they are ~0 in
// the clean calibration runs, so they cannot disturb the calibrated
// ordering there.
//
// TestQualityEstimatorRankAgreement pins the calibration: Spearman rank
// agreement with true PRDN ≥ 0.9 per record across ≥ 4 CRs.

// Calibration constants of the quality estimator, least-squares fit in
// log space on records {100, 119, 205, 213, 228} × CR {40..90}
// (n = 480 windows, R² = 0.90). Changing any of these invalidates the
// pinned rank-agreement and threshold tests.
const (
	calIntercept      = 12.25 // a: exp(a) scales residual^b·(N/M)^c into PRDN percent
	calResidualExp    = 2.37  // b: PRDN grows super-linearly with the residual
	calUndersampleExp = 1.94  // c: null-space amplification with undersampling
	calNonConvergence = 0.08  // d: budget-capped solves run slightly worse

	// marginEscape and marginGap widen the estimate for the
	// distribution-shift observables (up to +50% each): escape-coded
	// difference symbols flag mote-side nonstationarity, transport gaps
	// flag windows decoded off a disturbed warm start.
	marginEscape = 0.5
	marginGap    = 0.5
)

// GoodPRDN is the paper's "good" reconstruction boundary: PRDN ≤ 9 %
// (output SNR ≥ 20.9 dB) is diagnostically acceptable. The monitor
// counts a window bad when the estimate crosses it.
const GoodPRDN = 9.0

// QualityObservables are the decoder-side inputs of the estimator —
// every field is available in a live session without ground truth.
type QualityObservables struct {
	// Residual is the normalized final data residual ‖ΦΨα − y‖₂/‖y‖₂
	// of the FISTA solve (core.DecodeResult.ResidualNorm).
	Residual float64
	// M and N are the measurement count and window length.
	M, N int
	// Converged reports whether the solver hit its tolerance inside the
	// real-time iteration budget.
	Converged bool
	// EscapeRate is the window's escape-coded difference-symbol
	// fraction, escapes/M (0 for key frames).
	EscapeRate float64
	// GapRate is the transport's recent loss fraction: abandoned or
	// undecodable windows over a sliding slot window.
	GapRate float64
}

// EstimatePRDN returns the ground-truth-free PRDN estimate in percent.
// Degenerate observables (no residual, no measurements) return 0 — the
// caller cannot claim anything about such a window.
func EstimatePRDN(o QualityObservables) float64 {
	if o.M <= 0 || o.N <= 0 || o.Residual <= 0 {
		return 0
	}
	logEst := calIntercept +
		calResidualExp*math.Log(o.Residual) +
		calUndersampleExp*math.Log(float64(o.N)/float64(o.M))
	if !o.Converged {
		logEst += calNonConvergence
	}
	est := math.Exp(logEst)
	est *= 1 + marginEscape*clamp01(o.EscapeRate) + marginGap*clamp01(o.GapRate)
	return est
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Spearman returns the Spearman rank-correlation coefficient of the two
// equal-length samples (NaN for fewer than two points or zero
// variance). Ties receive their average rank. The calibration tests use
// it to pin the estimator's monotone association with true PRDN.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	rx := ranks(x)
	ry := ranks(y)
	return pearson(rx, ry)
}

// ranks assigns 1-based average ranks.
func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value: n is small (calibration tables), and the
	// package stays dependency-free.
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && v[idx[j-1]] > v[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
