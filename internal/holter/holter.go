// Package holter turns a beat sequence into the analytics a Holter
// report contains: heart-rate statistics, time-domain heart-rate
// variability (HRV) indices, ectopic burden and pause episodes.
//
// The package closes the clinical loop of the monitoring system: the
// pipeline reconstructs the signal, internal/qrs recovers the beats,
// and these analytics are what the cardiologist actually reads. The
// experiments use them to verify that *report-level* outputs — not just
// waveforms — survive compression.
package holter

import (
	"fmt"
	"math"
)

// BeatInput is the minimal per-beat information the analytics need.
type BeatInput struct {
	// Time of the R peak in seconds from recording start.
	Time float64
	// Ventricular marks PVC-like beats (excluded from HRV, counted in
	// the ectopic burden).
	Ventricular bool
}

// Report is the computed summary.
type Report struct {
	// DurationSec is the analyzed span (first to last beat).
	DurationSec float64
	// Beats is the total beat count; VentricularBeats the PVC-like
	// subset.
	Beats, VentricularBeats int
	// MeanHR, MinHR and MaxHR in bpm, from normal-to-normal intervals.
	MeanHR, MinHR, MaxHR float64
	// SDNN is the standard deviation of normal-to-normal intervals (ms).
	SDNN float64
	// RMSSD is the root mean square of successive NN differences (ms).
	RMSSD float64
	// PNN50 is the fraction of successive NN differences above 50 ms.
	PNN50 float64
	// VentricularPerHour is the PVC burden.
	VentricularPerHour float64
	// Pauses lists RR gaps exceeding the pause threshold.
	Pauses []Pause
}

// Pause is one detected RR gap.
type Pause struct {
	// Start time of the gap (the preceding beat), seconds.
	Start float64
	// DurationSec of the gap.
	DurationSec float64
}

// PauseThresholdSec is the conventional Holter pause definition: an RR
// interval of at least 2 seconds.
const PauseThresholdSec = 2.0

// Analyze computes the report. Beats must be in time order; at least
// three beats are required for the variability indices.
func Analyze(beats []BeatInput) (*Report, error) {
	if len(beats) < 3 {
		return nil, fmt.Errorf("holter: %d beats, need at least 3", len(beats))
	}
	for i := 1; i < len(beats); i++ {
		if beats[i].Time <= beats[i-1].Time {
			return nil, fmt.Errorf("holter: beats not strictly ascending at index %d", i)
		}
	}
	rep := &Report{
		DurationSec: beats[len(beats)-1].Time - beats[0].Time,
		Beats:       len(beats),
	}
	for _, b := range beats {
		if b.Ventricular {
			rep.VentricularBeats++
		}
	}
	if rep.DurationSec > 0 {
		rep.VentricularPerHour = float64(rep.VentricularBeats) / rep.DurationSec * 3600
	}

	// Normal-to-normal intervals: both endpoints non-ventricular (the
	// compensatory pause around a PVC would otherwise inflate every
	// variability index).
	var nn []float64 // seconds
	for i := 1; i < len(beats); i++ {
		if beats[i].Ventricular || beats[i-1].Ventricular {
			continue
		}
		rr := beats[i].Time - beats[i-1].Time
		nn = append(nn, rr)
		if rr >= PauseThresholdSec {
			rep.Pauses = append(rep.Pauses, Pause{Start: beats[i-1].Time, DurationSec: rr})
		}
	}
	if len(nn) < 2 {
		return nil, fmt.Errorf("holter: only %d normal-to-normal intervals", len(nn))
	}
	// Rate statistics.
	minRR, maxRR := nn[0], nn[0]
	var sum float64
	for _, rr := range nn {
		sum += rr
		if rr < minRR {
			minRR = rr
		}
		if rr > maxRR {
			maxRR = rr
		}
	}
	meanRR := sum / float64(len(nn))
	rep.MeanHR = 60 / meanRR
	rep.MinHR = 60 / maxRR
	rep.MaxHR = 60 / minRR
	// SDNN.
	var ss float64
	for _, rr := range nn {
		d := rr - meanRR
		ss += d * d
	}
	rep.SDNN = math.Sqrt(ss/float64(len(nn))) * 1000
	// RMSSD and pNN50 over successive differences.
	var sq float64
	over50 := 0
	for i := 1; i < len(nn); i++ {
		d := (nn[i] - nn[i-1]) * 1000 // ms
		sq += d * d
		if math.Abs(d) > 50 {
			over50++
		}
	}
	rep.RMSSD = math.Sqrt(sq / float64(len(nn)-1))
	rep.PNN50 = float64(over50) / float64(len(nn)-1)
	return rep, nil
}

// CompareReports quantifies how far a report computed on reconstructed
// data strays from the reference: the maximum relative error over the
// headline numbers (mean HR, SDNN, RMSSD, ectopic burden). Holter
// analytics surviving compression means this stays small.
func CompareReports(ref, got *Report) float64 {
	rel := func(a, b float64) float64 {
		den := math.Abs(a)
		if den < 1e-9 {
			den = 1e-9
		}
		return math.Abs(a-b) / den
	}
	worst := rel(ref.MeanHR, got.MeanHR)
	for _, v := range []float64{
		rel(ref.SDNN, got.SDNN),
		rel(ref.RMSSD, got.RMSSD),
		rel(ref.VentricularPerHour, got.VentricularPerHour),
	} {
		if v > worst {
			worst = v
		}
	}
	return worst
}
