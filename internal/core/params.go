// Package core assembles the paper's pipeline from the substrate
// packages: the three-stage encoder (sparse binary CS measurement →
// inter-packet redundancy removal → Huffman coding) that runs on the
// mote, and the three-stage decoder (Huffman decode → packet
// reconstruction → FISTA recovery) that runs on the coordinator.
package core

import (
	"fmt"

	"csecg/internal/dct"
	"csecg/internal/huffman"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
	"csecg/internal/wavelet"
)

// Pipeline constants fixed by the paper's implementation.
const (
	// FsMote is the mote's ECG sample rate (records are fed re-sampled
	// at 256 Hz).
	FsMote = 256
	// WindowSeconds is the packet granularity: 2 seconds of ECG.
	WindowSeconds = 2
	// WindowSize N = 512 samples per window.
	WindowSize = FsMote * WindowSeconds
	// DefaultColumnWeight is d = 12, the paper's execution-time /
	// recovery-quality sweet spot.
	DefaultColumnWeight = 12
	// ADCBaseline is subtracted from raw 11-bit samples before
	// measurement so the integer pipeline works on zero-centered data.
	ADCBaseline = 1024
	// ADCMax is the largest raw sample the 11-bit ADC can produce. The
	// encoder clamps its input to [0, ADCMax] so every downstream
	// interval — centering, measurement accumulation, differencing — is
	// bounded (rangecheck proves the centering subtraction from it).
	ADCMax = 2047
	// MaxMeasurementShift bounds the LSB drop. withDefaults validates
	// against it and EncodeWindow clamps with it locally, which is what
	// lets the interval engine bound the rounding shift without
	// interprocedural knowledge.
	MaxMeasurementShift = 8
	// NumDiffSymbols is the difference alphabet: values [−256, 255]
	// map to symbols 0..511.
	NumDiffSymbols = 512
	// DefaultMeasurements is M at the default CR = 50% target:
	// metrics.MForCR(50, WindowSize). Kept as a constant so the
	// device-side RAM ledger (internal/mote, checked by the budget
	// analyzer) can be summed at compile time; a test pins the two
	// together.
	DefaultMeasurements = WindowSize / 2
	// EscapeSymbol is the codeword borrowed for out-of-range
	// differences: it is followed by a raw 16-bit value. The paper's
	// codebook has no escape (its records keep differences in range);
	// synthetic records occasionally exceed it, and silent clamping
	// would corrupt the reconstruction. See DESIGN.md.
	EscapeSymbol = NumDiffSymbols - 1
	// DefaultWaveletOrder/Levels define Ψ: a db4 basis, 5 levels.
	DefaultWaveletOrder  = 4
	DefaultWaveletLevels = 5
	// DefaultKeyFrameInterval inserts a raw-coded key packet every this
	// many packets so the stream can resynchronize after loss.
	DefaultKeyFrameInterval = 64
	// DefaultMeasurementShift right-shifts each integer measurement by
	// this many bits before the difference stage. Raw measurements of a
	// weight-12 column span ±12288; quasi-periodic windows leave
	// differences of a few hundred, and dropping 3 LSBs brings them
	// into the codebook's [−256, 255] range (the paper reports exactly
	// that range) at a quantization-noise level far below the CS
	// recovery error.
	DefaultMeasurementShift = 3
)

// Params configures an encoder/decoder pair. Both sides must use
// identical values; Seed drives the shared sensing-matrix generator.
type Params struct {
	// N is the window length (default WindowSize).
	N int
	// M is the number of CS measurements per window. Set it from a
	// target compression ratio with metrics.MForCR.
	M int
	// D is the sensing-matrix column weight (default
	// DefaultColumnWeight).
	D int
	// Seed seeds the 16-bit LCG that generates the sensing support on
	// both sides.
	Seed uint16
	// Basis selects the sparsifying transform Ψ used at recovery (the
	// encoder never touches it). The zero value is the paper's
	// orthonormal wavelet.
	Basis Basis
	// WaveletOrder and WaveletLevels parameterize the wavelet basis
	// (ignored for BasisDCT).
	WaveletOrder, WaveletLevels int
	// KeyFrameInterval is the packet period of raw-coded key frames
	// (≤ 1 makes every packet a key frame; default
	// DefaultKeyFrameInterval).
	KeyFrameInterval int
	// MeasurementShift is the LSB count dropped from each measurement
	// before differencing (default DefaultMeasurementShift; negative
	// selects 0). Both sides must agree.
	MeasurementShift int
	// Codebook is the trained Huffman codebook. Nil selects
	// DefaultCodebook().
	Codebook *huffman.Codebook
}

// withDefaults fills zero fields and validates.
func (p Params) withDefaults() (Params, error) {
	if p.N == 0 {
		p.N = WindowSize
	}
	if p.D == 0 {
		p.D = DefaultColumnWeight
	}
	if p.M == 0 {
		p.M = metrics.MForCR(50, p.N) //csecg:host one-time configuration, not firmware arithmetic
	}
	if p.WaveletOrder == 0 {
		p.WaveletOrder = DefaultWaveletOrder
	}
	if p.WaveletLevels == 0 {
		p.WaveletLevels = DefaultWaveletLevels
	}
	if p.KeyFrameInterval == 0 {
		p.KeyFrameInterval = DefaultKeyFrameInterval
	}
	if p.MeasurementShift == 0 {
		p.MeasurementShift = DefaultMeasurementShift
	} else if p.MeasurementShift < 0 {
		p.MeasurementShift = 0
	}
	if p.MeasurementShift > MaxMeasurementShift {
		return p, fmt.Errorf("core: measurement shift %d out of [0, %d]", p.MeasurementShift, MaxMeasurementShift)
	}
	if p.Codebook == nil {
		p.Codebook = DefaultCodebook()
	}
	if p.M <= 0 || p.M > p.N {
		return p, fmt.Errorf("core: M=%d out of [1, N=%d]", p.M, p.N)
	}
	if p.Codebook.NumSymbols() != NumDiffSymbols {
		return p, fmt.Errorf("core: codebook has %d symbols, want %d", p.Codebook.NumSymbols(), NumDiffSymbols)
	}
	return p, nil
}

// Basis names a sparsifying transform family.
type Basis int

// Supported bases.
const (
	// BasisWavelet is the paper's orthonormal Daubechies wavelet.
	BasisWavelet Basis = iota
	// BasisDCT is an orthonormal discrete cosine basis, provided for
	// the basis ablation (heavier at recovery: O(N²) per operator
	// apply instead of O(N·filter)).
	BasisDCT
)

// String names the basis.
func (b Basis) String() string {
	if b == BasisDCT {
		return "DCT"
	}
	return "wavelet"
}

// sensingMatrix builds the shared sparse binary matrix.
func (p Params) sensingMatrix() (*sensing.SparseBinary, error) {
	return sensing.NewSparseBinaryLCG(p.M, p.N, p.D, p.Seed)
}

// sparsifier is the decoder's view of Ψ: synthesis into samples plus the
// operator pair the solver consumes. Both the wavelet and DCT
// transforms satisfy it.
type sparsifier[T linalg.Float] interface {
	Inverse(dst, coeffs []T)
	SynthesisOp() linalg.Op[T]
}

// basis builds the shared sparsifying transform at the requested
// precision.
func basis[T linalg.Float](p Params) (sparsifier[T], error) {
	switch p.Basis {
	case BasisDCT:
		return dct.New[T](p.N)
	case BasisWavelet:
		return wavelet.New[T](p.WaveletOrder, p.N, p.WaveletLevels)
	default:
		return nil, fmt.Errorf("core: unknown basis %d", p.Basis)
	}
}
