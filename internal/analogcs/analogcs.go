// Package analogcs simulates the paper's stated "ultimate goal": analog
// compressed sensing, where the CS projection happens in the sensor
// read-out electronics *before* the ADC, so only M low-rate conversions
// per window are ever performed (Section II-A defers this to future
// work and implements "digital CS" instead).
//
// The architecture simulated here is the random-modulation
// pre-integrator (RMPI): M parallel branches each multiply the analog
// ECG by a ±1 pseudo-random chipping waveform (piecewise constant at an
// oversampled chip rate), integrate over the 2-second window, and one
// low-rate ADC digitizes each integrator output. Non-idealities that a
// real front end exhibits are modeled explicitly:
//
//   - integrator leakage (finite RC): earlier signal decays before
//     read-out;
//   - input-referred thermal noise;
//   - ADC quantization of the integrator outputs.
//
// Reconstruction uses the *ideal* discrete equivalent operator (the
// bucket-averaged chip matrix on the 256 Hz grid), so leakage and noise
// act as model mismatch — exactly the deployment situation. The
// experiment in internal/experiments compares digital CS, ideal analog
// CS and degraded analog CS at matched M.
package analogcs

import (
	"fmt"
	"math"

	"csecg/internal/linalg"
	"csecg/internal/rng"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

// Config parameterizes the front end.
type Config struct {
	// M is the number of branches (measurements per window).
	M int
	// N is the discrete window length on the reconstruction grid
	// (512 = 2 s at 256 Hz).
	N int
	// Oversample is the chip-rate multiple of the reconstruction rate
	// (chips per 256 Hz sample). 8 models a ~2 kHz chip clock.
	Oversample int
	// ChipSeed seeds the chipping sequences (shared with the decoder).
	ChipSeed uint64
	// LeakagePerSecond is the integrator's fractional decay rate λ:
	// a contribution at time t is weighted e^{−λ(T−t)} at read-out.
	// 0 is an ideal integrator.
	LeakagePerSecond float64
	// NoiseRMS is input-referred noise in the signal's units added per
	// chip interval (scaled by √chip duration).
	NoiseRMS float64
	// NoiseSeed seeds the noise stream.
	NoiseSeed uint64
	// ADCBits quantizes each integrator output (0 disables).
	ADCBits int
	// FullScale is the ADC's full-scale magnitude in output units
	// (required when ADCBits > 0).
	FullScale float64
	// WindowSeconds is the integration window duration (2 s).
	WindowSeconds float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.M <= 0 || c.N <= 0:
		return fmt.Errorf("analogcs: non-positive dimensions M=%d N=%d", c.M, c.N)
	case c.M > c.N:
		return fmt.Errorf("analogcs: M=%d > N=%d is not a compression", c.M, c.N)
	case c.Oversample < 1:
		return fmt.Errorf("analogcs: oversample factor %d must be ≥ 1", c.Oversample)
	case c.LeakagePerSecond < 0:
		return fmt.Errorf("analogcs: negative leakage")
	case c.NoiseRMS < 0:
		return fmt.Errorf("analogcs: negative noise")
	case c.ADCBits < 0 || c.ADCBits > 24:
		return fmt.Errorf("analogcs: ADC bits %d out of [0, 24]", c.ADCBits)
	case c.ADCBits > 0 && c.FullScale <= 0:
		return fmt.Errorf("analogcs: ADC enabled but full scale %v not positive", c.FullScale)
	case c.WindowSeconds <= 0:
		return fmt.Errorf("analogcs: window %v must be positive", c.WindowSeconds)
	}
	return nil
}

// FrontEnd is an instantiated RMPI front end with fixed chipping
// sequences.
type FrontEnd struct {
	cfg Config
	// chips[i] holds branch i's ±1 sequence at the chip rate
	// (N·Oversample values).
	chips [][]int8
}

// New builds the front end, generating the chipping sequences from
// ChipSeed.
func New(cfg Config) (*FrontEnd, error) {
	if cfg.WindowSeconds == 0 {
		cfg.WindowSeconds = 2
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen := rng.New(cfg.ChipSeed)
	k := cfg.N * cfg.Oversample
	fe := &FrontEnd{cfg: cfg, chips: make([][]int8, cfg.M)}
	for i := range fe.chips {
		row := make([]int8, k)
		for j := range row {
			row[j] = int8(gen.Sign())
		}
		fe.chips[i] = row
	}
	return fe, nil
}

// ChipCount returns the chips per window.
func (fe *FrontEnd) ChipCount() int { return fe.cfg.N * fe.cfg.Oversample }

// Measure integrates one window of the "analog" signal (sampled at the
// chip rate: N·Oversample values) through all M branches, applying
// leakage, noise and quantization, and returns the M read-out values.
func (fe *FrontEnd) Measure(analog []float64) ([]float64, error) {
	k := fe.ChipCount()
	if len(analog) != k {
		return nil, fmt.Errorf("analogcs: analog window has %d chips, want %d", len(analog), k)
	}
	chipDt := fe.cfg.WindowSeconds / float64(k)
	// Leakage weight for a contribution at chip j read out at chip k:
	// e^{−λ·(k−j)·dt}; computed incrementally as a running decay.
	decayPerChip := math.Exp(-fe.cfg.LeakagePerSecond * chipDt)
	noise := rng.New(fe.cfg.NoiseSeed)
	noiseScale := fe.cfg.NoiseRMS * math.Sqrt(chipDt)
	out := make([]float64, fe.cfg.M)
	for i, row := range fe.chips {
		var acc float64
		for j, c := range row {
			acc *= decayPerChip
			v := analog[j]
			if noiseScale > 0 {
				v += noise.NormFloat64() * noiseScale
			}
			acc += float64(c) * v
		}
		// Normalize to a per-sample average so the output scale matches
		// the effective operator.
		acc /= float64(fe.cfg.Oversample)
		out[i] = fe.quantize(acc)
	}
	return out, nil
}

// quantize applies the read-out ADC.
func (fe *FrontEnd) quantize(v float64) float64 {
	if fe.cfg.ADCBits == 0 {
		return v
	}
	levels := float64(int64(1) << uint(fe.cfg.ADCBits-1))
	step := fe.cfg.FullScale / levels
	q := math.Round(v/step) * step
	if q > fe.cfg.FullScale {
		q = fe.cfg.FullScale
	}
	if q < -fe.cfg.FullScale {
		q = -fe.cfg.FullScale
	}
	return q
}

// EffectiveMatrix returns the ideal discrete equivalent Φ on the
// reconstruction grid: entry (i, j) is the mean of branch i's chips over
// sample j's bucket. The decoder composes it with Ψ for recovery.
func (fe *FrontEnd) EffectiveMatrix() *linalg.Dense[float64] {
	m := linalg.NewDense[float64](fe.cfg.M, fe.cfg.N)
	os := fe.cfg.Oversample
	for i, row := range fe.chips {
		dst := m.Row(i)
		for j := 0; j < fe.cfg.N; j++ {
			var s int
			for k := j * os; k < (j+1)*os; k++ {
				s += int(row[k])
			}
			dst[j] = float64(s) / float64(os)
		}
	}
	return m
}

// CompensatedMatrix returns the discrete equivalent operator with the
// integrator leakage folded in: entry (i, j) is the decay-weighted mean
// of branch i's chips over bucket j. A deployed decoder calibrates the
// front end's RC constant once and recovers with this operator, which
// removes the model mismatch that leakage otherwise causes (see the
// package tests for the quantitative difference).
func (fe *FrontEnd) CompensatedMatrix() *linalg.Dense[float64] {
	m := linalg.NewDense[float64](fe.cfg.M, fe.cfg.N)
	k := fe.ChipCount()
	chipDt := fe.cfg.WindowSeconds / float64(k)
	decayPerChip := math.Exp(-fe.cfg.LeakagePerSecond * chipDt)
	// Weight of chip j at read-out: decay^(K−1−j).
	weights := make([]float64, k)
	w := 1.0
	for j := k - 1; j >= 0; j-- {
		weights[j] = w
		w *= decayPerChip
	}
	os := fe.cfg.Oversample
	for i, row := range fe.chips {
		dst := m.Row(i)
		for j := 0; j < fe.cfg.N; j++ {
			var s float64
			for c := j * os; c < (j+1)*os; c++ {
				s += float64(row[c]) * weights[c]
			}
			dst[j] = s / float64(os)
		}
	}
	return m
}

// Recover reconstructs one window from front-end measurements with the
// standard decoder configuration (db4/5-level wavelet basis, FISTA with
// λ-continuation). calibrated selects the leakage-compensated operator;
// a deployed decoder would calibrate once and always pass true.
func (fe *FrontEnd) Recover(y []float64, calibrated bool) ([]float64, error) {
	if len(y) != fe.cfg.M {
		return nil, fmt.Errorf("analogcs: %d measurements, want %d", len(y), fe.cfg.M)
	}
	w, err := wavelet.New[float64](4, fe.cfg.N, wavelet.MaxLevels(4, fe.cfg.N))
	if err != nil {
		return nil, err
	}
	phi := fe.EffectiveMatrix()
	if calibrated {
		phi = fe.CompensatedMatrix()
	}
	a := linalg.Compose(linalg.OpFromDense(phi), w.SynthesisOp())
	res, err := solver.FISTAContinuation(a, y, solver.Options[float64]{MaxIter: 2400, Tol: 1e-6}, 6)
	if err != nil {
		return nil, err
	}
	x := make([]float64, fe.cfg.N)
	w.Inverse(x, res.X)
	return x, nil
}

// Upsample converts a window on the reconstruction grid to the chip
// grid by zero-order hold — the test-side stand-in for the continuous
// signal (a real front end sees the bandlimited original; ZOH is exact
// for the piecewise-constant test signals and a second-order-small
// approximation for 256 Hz-bandlimited ECG at 8× oversampling).
func Upsample(x []float64, factor int) []float64 {
	out := make([]float64, len(x)*factor)
	for i, v := range x {
		for k := 0; k < factor; k++ {
			out[i*factor+k] = v
		}
	}
	return out
}
