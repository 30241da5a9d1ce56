package qrs

// Beat augments a detection with the morphology measurements used for
// rhythm interpretation: the QRS width (ventricular ectopics conduct
// cell-to-cell instead of through the His-Purkinje system, widening the
// complex ~2-3×) and the classifier's verdict.
type Beat struct {
	// Sample index of the R peak.
	Sample int
	// WidthSec is the measured QRS duration in seconds.
	WidthSec float64
	// PeakToPeak is the QRS amplitude (max − min within ±40 ms),
	// baseline-invariant.
	PeakToPeak float64
	// Score is the record-relative wideness×amplitude product the
	// classifier thresholds: conducted beats cluster near 1.
	Score float64
	// Ventricular is true when Score exceeds the classification
	// threshold (a PVC-like beat).
	Ventricular bool
}

// VentricularScore is the default classification boundary on the
// combined score (width/median-width) × (amplitude/median-amplitude).
// Conducted beats cluster in [0.8, 1.15] across heart rates and noise
// levels; PVC-like complexes — wider *and* taller — score ≥ 1.35. The
// record-relative form self-calibrates across morphology scales, which
// an absolute millisecond threshold does not.
const VentricularScore = 1.25

// DetectBeats runs Detect and measures each detection's QRS width on
// the derivative envelope of the raw signal: the contiguous region
// around the peak where |dx/dt| (lightly smoothed) stays above 25% of
// its local peak. The derivative suppresses the slow P and T waves
// while preserving the QRS span, and — unlike the detector's narrow
// 5-15 Hz bandpass — does not ring the width measurement out.
func (d *Detector) DetectBeats(x []float64) []Beat {
	detections := d.Detect(x)
	if len(detections) == 0 {
		return nil
	}
	env := make([]float64, len(x))
	for i := 1; i < len(x); i++ {
		v := (x[i] - x[i-1]) * d.fs
		if v < 0 {
			v = -v
		}
		env[i] = v
	}
	// Light smoothing bridges the zero crossings between the Q, R and S
	// deflections.
	env = movingAverage(env, int(0.020*d.fs+0.5))
	beats := make([]Beat, len(detections))
	maxHalf := int(0.160 * d.fs) // beyond ±160 ms it's not QRS anymore
	for i, p := range detections {
		peak := env[p]
		// Re-center on the local envelope max (the detection sits on the
		// filtered-signal extremum, which the smoothing may shift).
		for j := p - maxHalf/4; j <= p+maxHalf/4; j++ {
			if j >= 0 && j < len(env) && env[j] > peak {
				peak = env[j]
			}
		}
		thresh := 0.25 * peak
		lo := p
		for lo > 0 && p-lo < maxHalf && env[lo-1] > thresh {
			lo--
		}
		hi := p
		for hi < len(env)-1 && hi-p < maxHalf && env[hi+1] > thresh {
			hi++
		}
		width := float64(hi-lo+1) / d.fs
		// Peak-to-peak amplitude on the raw signal (baseline drops out).
		ampHalf := int(0.040 * d.fs)
		alo, ahi := p-ampHalf, p+ampHalf
		if alo < 0 {
			alo = 0
		}
		if ahi >= len(x) {
			ahi = len(x) - 1
		}
		minV, maxV := x[alo], x[alo]
		for j := alo + 1; j <= ahi; j++ {
			if x[j] < minV {
				minV = x[j]
			}
			if x[j] > maxV {
				maxV = x[j]
			}
		}
		beats[i] = Beat{Sample: p, WidthSec: width, PeakToPeak: maxV - minV}
	}
	// Score each beat against the record medians.
	widths := make([]float64, len(beats))
	amps := make([]float64, len(beats))
	for i, b := range beats {
		widths[i] = b.WidthSec
		amps[i] = b.PeakToPeak
	}
	medW := median(widths)
	medA := median(amps)
	for i := range beats {
		if medW > 0 && medA > 0 {
			beats[i].Score = (beats[i].WidthSec / medW) * (beats[i].PeakToPeak / medA)
		}
		beats[i].Ventricular = beats[i].Score > VentricularScore
	}
	return beats
}

// median returns the middle element, destroying the slice order.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	// Insertion sort: beat counts per record segment stay small.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[len(v)/2]
}

// ClassificationStats scores beat classification against labeled
// references.
type ClassificationStats struct {
	// TruePVC/FalsePVC/MissedPVC count wide-complex classification
	// against the reference labels; NormalCorrect counts narrow beats
	// classified narrow.
	TruePVC, FalsePVC, MissedPVC, NormalCorrect, NormalTotal int
}

// PVCSensitivity returns the fraction of reference PVCs classified
// ventricular (1 when no PVCs exist).
func (c ClassificationStats) PVCSensitivity() float64 {
	den := c.TruePVC + c.MissedPVC
	if den == 0 {
		return 1
	}
	return float64(c.TruePVC) / float64(den)
}

// ScoreClassification matches classified beats to labeled references
// (ascending sample indices; ventricular flags per reference) within tol
// samples and tallies the confusion counts. Unmatched detections are
// ignored here — use Match for detection-level statistics.
func ScoreClassification(beats []Beat, refSamples []int, refVentricular []bool, tol int) ClassificationStats {
	var st ClassificationStats
	bi := 0
	for ri, ref := range refSamples {
		for bi < len(beats) && beats[bi].Sample < ref-tol {
			bi++
		}
		if bi >= len(beats) || beats[bi].Sample > ref+tol {
			if refVentricular[ri] {
				st.MissedPVC++
			}
			continue
		}
		b := beats[bi]
		bi++
		switch {
		case refVentricular[ri] && b.Ventricular:
			st.TruePVC++
		case refVentricular[ri] && !b.Ventricular:
			st.MissedPVC++
		case !refVentricular[ri] && b.Ventricular:
			st.FalsePVC++
			st.NormalTotal++
		default:
			st.NormalCorrect++
			st.NormalTotal++
		}
	}
	return st
}
