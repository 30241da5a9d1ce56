// Package qrs implements a Pan-Tompkins-style QRS detector and the
// beat-matching statistics used to validate reconstruction quality
// clinically rather than numerically.
//
// PRD measures waveform fidelity; what a tele-cardiology system actually
// needs is that the *diagnostic content* survives compression. This
// package detects R peaks on original and reconstructed signals and
// scores them against the generator's ground-truth annotations
// (sensitivity and positive predictive value with the standard ±50 ms
// matching window), giving the experiments a clinical axis for the CR
// sweep.
package qrs

import (
	"fmt"
	"math"

	"csecg/internal/dsp"
)

// Detector is a Pan-Tompkins-style QRS detector for a fixed sample rate.
// The zero value is unusable; build with NewDetector.
type Detector struct {
	fs float64
	// Bandpass FIR (5-15 Hz passband) isolating QRS energy.
	bandpass []float64
	// Integration window length (150 ms).
	integLen int
	// Refractory period (200 ms) and searchback window (1.66 × mean RR).
	refractory int
}

// NewDetector builds a detector for sample rate fs (Hz). Rates below
// 100 Hz cannot resolve the QRS complex and are rejected.
func NewDetector(fs float64) (*Detector, error) {
	if fs < 100 {
		return nil, fmt.Errorf("qrs: sample rate %.0f Hz too low for QRS detection", fs)
	}
	// Linear-phase bandpass as a difference of two low-pass designs:
	// lp(15 Hz) − lp(5 Hz).
	taps := int(fs/4)*2 + 1 // ~0.5 s of taps, odd for symmetry
	lpHi := dsp.FIRLowpass(taps, 15/fs, dsp.Hamming)
	lpLo := dsp.FIRLowpass(taps, 5/fs, dsp.Hamming)
	bp := make([]float64, taps)
	for i := range bp {
		bp[i] = lpHi[i] - lpLo[i]
	}
	return &Detector{
		fs:         fs,
		bandpass:   bp,
		integLen:   int(0.150*fs + 0.5),
		refractory: int(0.200*fs + 0.5),
	}, nil
}

// Detect returns the sample indices of detected R peaks in x, in
// ascending order.
func (d *Detector) Detect(x []float64) []int {
	if len(x) < d.integLen*2 {
		return nil
	}
	// Stage 1: bandpass.
	filtered := dsp.FilterSame(x, d.bandpass)
	// Stage 2: five-point derivative.
	deriv := make([]float64, len(filtered))
	for n := 4; n < len(filtered); n++ {
		deriv[n] = (2*filtered[n] + filtered[n-1] - filtered[n-3] - 2*filtered[n-4]) / 8
	}
	// Stage 3: squaring.
	for i, v := range deriv {
		deriv[i] = v * v
	}
	// Stage 4: moving-window integration.
	integ := movingAverage(deriv, d.integLen)
	// Stage 5: adaptive dual-threshold peak picking with refractory
	// period and searchback.
	dets := d.pickPeaks(integ, filtered)
	// Suppress the filter's start-up/tail transient region, where the
	// bandpass output is dominated by edge effects.
	edge := len(d.bandpass) / 2
	kept := dets[:0]
	for _, p := range dets {
		if p >= edge && p < len(x)-edge {
			kept = append(kept, p)
		}
	}
	return kept
}

// movingAverage computes the centered moving mean over win samples.
func movingAverage(x []float64, win int) []float64 {
	out := make([]float64, len(x))
	var acc float64
	for i, v := range x {
		acc += v
		if i >= win {
			acc -= x[i-win]
		}
		out[i] = acc / float64(win)
	}
	return out
}

// pickPeaks runs the adaptive thresholding of Pan-Tompkins: signal and
// noise peak estimates (SPK/NPK) track detected peaks, the detection
// threshold sits between them, missed-beat searchback applies half the
// threshold when no beat arrives within 1.66 × the running RR mean.
func (d *Detector) pickPeaks(integ, filtered []float64) []int {
	peaks := localMaxima(integ, d.integLen/2)
	if len(peaks) == 0 {
		return nil
	}
	// Initialize estimates from the first two seconds.
	init := int(2 * d.fs)
	if init > len(integ) {
		init = len(integ)
	}
	var maxInit, meanInit float64
	for _, v := range integ[:init] {
		meanInit += v
		if v > maxInit {
			maxInit = v
		}
	}
	meanInit /= float64(init)
	spk := maxInit * 0.6
	npk := meanInit * 0.5
	threshold := npk + 0.25*(spk-npk)

	var detections []int
	var rrSum float64
	var rrCount int
	lastDet := -d.refractory
	for _, p := range peaks {
		v := integ[p]
		if p-lastDet < d.refractory {
			continue
		}
		if v > threshold {
			det := refineOnFiltered(filtered, p, d.integLen)
			if len(detections) > 0 {
				rrSum += float64(det - lastDet)
				rrCount++
			}
			detections = append(detections, det)
			lastDet = det
			spk = 0.125*v + 0.875*spk
		} else {
			npk = 0.125*v + 0.875*npk
			// Searchback: if a long gap elapsed, accept the strongest
			// sub-threshold peak over half the threshold.
			if rrCount >= 2 {
				meanRR := rrSum / float64(rrCount)
				if float64(p-lastDet) > 1.66*meanRR && v > threshold/2 {
					det := refineOnFiltered(filtered, p, d.integLen)
					rrSum += float64(det - lastDet)
					rrCount++
					detections = append(detections, det)
					lastDet = det
					spk = 0.25*v + 0.75*spk
				}
			}
		}
		threshold = npk + 0.25*(spk-npk)
	}
	return detections
}

// localMaxima returns indices that dominate a ±halfWin neighbourhood.
func localMaxima(x []float64, halfWin int) []int {
	var out []int
	for i := halfWin; i < len(x)-halfWin; i++ {
		v := x[i]
		if v == 0 {
			continue
		}
		isMax := true
		for j := i - halfWin; j <= i+halfWin && isMax; j++ {
			if x[j] > v {
				isMax = false
			}
		}
		if isMax {
			out = append(out, i)
			i += halfWin // skip the dominated span
		}
	}
	return out
}

// refineOnFiltered moves an integration-peak index onto the nearest
// absolute maximum of the bandpassed signal, compensating the
// integrator's group delay.
func refineOnFiltered(filtered []float64, p, halfWin int) int {
	lo, hi := p-halfWin, p+halfWin/2
	if lo < 0 {
		lo = 0
	}
	if hi > len(filtered) {
		hi = len(filtered)
	}
	best, bestV := p, 0.0
	for i := lo; i < hi; i++ {
		if v := math.Abs(filtered[i]); v > bestV {
			bestV, best = v, i
		}
	}
	return best
}

// MatchStats scores detections against reference beat locations.
type MatchStats struct {
	// TruePositives, FalsePositives and FalseNegatives under the
	// matching tolerance.
	TruePositives, FalsePositives, FalseNegatives int
}

// Sensitivity returns TP/(TP+FN), or 1 when no reference beats exist.
func (m MatchStats) Sensitivity() float64 {
	den := m.TruePositives + m.FalseNegatives
	if den == 0 {
		return 1
	}
	return float64(m.TruePositives) / float64(den)
}

// PPV returns TP/(TP+FP), or 1 when there are no detections.
func (m MatchStats) PPV() float64 {
	den := m.TruePositives + m.FalsePositives
	if den == 0 {
		return 1
	}
	return float64(m.TruePositives) / float64(den)
}

// F1 returns the harmonic mean of sensitivity and PPV.
func (m MatchStats) F1() float64 {
	s, p := m.Sensitivity(), m.PPV()
	if s+p == 0 {
		return 0
	}
	return 2 * s * p / (s + p)
}

// Match greedily pairs detections with references within tol samples
// (both slices must be ascending). The standard AAMI tolerance is
// 150 ms, but compression studies use the stricter ±50 ms.
func Match(detections, reference []int, tol int) MatchStats {
	var st MatchStats
	used := make([]bool, len(detections))
	di := 0
	for _, ref := range reference {
		// advance to the closest detection
		for di < len(detections) && detections[di] < ref-tol {
			di++
		}
		matched := false
		for j := di; j < len(detections) && detections[j] <= ref+tol; j++ {
			if !used[j] {
				used[j] = true
				matched = true
				break
			}
		}
		if matched {
			st.TruePositives++
		} else {
			st.FalseNegatives++
		}
	}
	for _, u := range used {
		if !u {
			st.FalsePositives++
		}
	}
	return st
}
