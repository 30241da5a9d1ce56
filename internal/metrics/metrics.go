// Package metrics implements the evaluation metrics of Section III of
// the paper: compression ratio (CR), percentage root-mean-square
// difference (PRD) and the associated signal-to-noise ratio (SNR), plus
// the standard diagnostic-quality bands used in the ECG-compression
// literature to interpret PRD values.
package metrics

import (
	"fmt"
	"math"
)

// CR returns the compression ratio of Eq. (7):
// (b_orig − b_comp)/b_orig × 100. Both arguments are bit counts.
func CR(origBits, compBits int) float64 {
	if origBits <= 0 {
		return 0
	}
	return float64(origBits-compBits) / float64(origBits) * 100
}

// MForCR returns the number of measurements M that realizes a target
// CS-stage compression ratio 100·(1 − M/n) over length-n windows,
// clamped to [1, n].
func MForCR(cr float64, n int) int {
	m := int(math.Round(float64(n) * (1 - cr/100)))
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}

// PRD returns the percentage root-mean-square difference between the
// original x and reconstruction xr:  ‖x−x̃‖₂/‖x‖₂ × 100.
// It returns an error on length mismatch or an all-zero reference.
func PRD(x, xr []float64) (float64, error) {
	if len(x) != len(xr) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(x), len(xr))
	}
	var num, den float64
	for i := range x {
		d := x[i] - xr[i]
		num += d * d
		den += x[i] * x[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("metrics: zero reference signal")
	}
	return math.Sqrt(num/den) * 100, nil
}

// PRDN is the mean-removed (normalized) PRD, insensitive to the ADC
// baseline offset: ‖x−x̃‖₂/‖x−mean(x)‖₂ × 100. MIT-BIH samples carry a
// 1024-count offset, which would otherwise flatter the plain PRD.
func PRDN(x, xr []float64) (float64, error) {
	if len(x) != len(xr) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(x), len(xr))
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var num, den float64
	for i := range x {
		d := x[i] - xr[i]
		num += d * d
		c := x[i] - mean
		den += c * c
	}
	if den == 0 {
		return 0, fmt.Errorf("metrics: constant reference signal")
	}
	return math.Sqrt(num/den) * 100, nil
}

// SNR converts a PRD percentage to the paper's output SNR in dB:
// SNR = −20·log10(0.01·PRD).
func SNR(prd float64) float64 {
	if prd <= 0 {
		return math.Inf(1)
	}
	return -20 * math.Log10(0.01*prd)
}

// Quality is the diagnostic-quality interpretation of a PRDN value,
// following the Zigel et al. correspondence used throughout the ECG
// compression literature (the "VG"/"G" marks on the paper's Fig. 6).
type Quality int

// Quality bands.
const (
	VeryGood Quality = iota // PRDN < 2%: no visible distortion
	Good                    // 2% ≤ PRDN < 9%: diagnostically acceptable
	Degraded                // PRDN ≥ 9%: quality not guaranteed
)

// String names the band.
func (q Quality) String() string {
	switch q {
	case VeryGood:
		return "very good"
	case Good:
		return "good"
	default:
		return "degraded"
	}
}

// Classify maps a PRDN percentage to its quality band.
func Classify(prdn float64) Quality {
	switch {
	case prdn < 2:
		return VeryGood
	case prdn < 9:
		return Good
	default:
		return Degraded
	}
}
