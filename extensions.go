package csecg

import (
	"csecg/internal/analogcs"
	"csecg/internal/core"
	"csecg/internal/holter"
	"csecg/internal/qrs"
)

// This file exposes the extension subsystems built on top of the
// paper's pipeline: the DCT basis ablation, clinical validation (QRS
// detection and Holter analytics) and the analog-CS front-end
// simulation.

// Sparsifying bases selectable in Params.Basis.
const (
	// BasisWavelet is the paper's orthonormal Daubechies wavelet.
	BasisWavelet = core.BasisWavelet
	// BasisDCT is an orthonormal cosine basis (ablation alternative).
	BasisDCT = core.BasisDCT
)

// QRS detection and beat classification (clinical validation).
type (
	// QRSDetector is a Pan-Tompkins-style beat detector.
	QRSDetector = qrs.Detector
	// BeatMatchStats scores detections against reference beats.
	BeatMatchStats = qrs.MatchStats
)

// NewQRSDetector builds a detector for the given sample rate.
func NewQRSDetector(fs float64) (*QRSDetector, error) { return qrs.NewDetector(fs) }

// MatchBeats pairs detections with reference beat locations within tol
// samples (both ascending).
func MatchBeats(detections, reference []int, tol int) BeatMatchStats {
	return qrs.Match(detections, reference, tol)
}

// Holter-report analytics.
type (
	// HolterBeat is the per-beat input of the analytics.
	HolterBeat = holter.BeatInput
	// HolterReport is the computed summary (HR, HRV, burden, pauses).
	HolterReport = holter.Report
	// AFEpisode is one detected atrial-fibrillation episode.
	AFEpisode = holter.AFEpisode
	// SpectralHRV holds LF/HF band powers of the RR series.
	SpectralHRV = holter.SpectralHRV
)

// AnalyzeHolter computes the report from a time-ordered beat sequence.
func AnalyzeHolter(beats []HolterBeat) (*HolterReport, error) { return holter.Analyze(beats) }

// CompareHolterReports returns the worst relative error over the
// headline numbers of two reports.
func CompareHolterReports(ref, got *HolterReport) float64 {
	return holter.CompareReports(ref, got)
}

// DetectAF finds fibrillation episodes from RR statistics and returns
// them with the fraction of time in AF.
func DetectAF(beats []HolterBeat) ([]AFEpisode, float64, error) { return holter.DetectAF(beats) }

// AnalyzeSpectralHRV computes LF/HF band powers via the Lomb-Scargle
// periodogram of the normal-to-normal interval series.
func AnalyzeSpectralHRV(beats []HolterBeat) (*SpectralHRV, error) {
	return holter.AnalyzeSpectral(beats)
}

// Analog CS front-end simulation (the paper's "ultimate goal").
type (
	// AnalogFrontEnd is a random-modulation pre-integrator model.
	AnalogFrontEnd = analogcs.FrontEnd
	// AnalogConfig parameterizes it.
	AnalogConfig = analogcs.Config
)

// NewAnalogFrontEnd builds the front end.
func NewAnalogFrontEnd(cfg AnalogConfig) (*AnalogFrontEnd, error) { return analogcs.New(cfg) }
