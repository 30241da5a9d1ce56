// Package dsp provides the signal-processing substrate of the pipeline:
// windowed-sinc FIR design, convolution and a polyphase rational
// resampler.
//
// The paper feeds the MIT-BIH records (360 Hz) to the Shimmer mote
// "re-sampled at 256 Hz". 256/360 reduces to 32/45, so the record loader
// uses a polyphase L=32, M=45 rational resampler built from a windowed-
// sinc low-pass prototype.
package dsp

import "math"

// Window selects the tapering window applied to the sinc prototype.
type Window int

// Supported FIR design windows.
const (
	Rectangular Window = iota
	Hamming
	Blackman
)

// FIRLowpass designs a linear-phase low-pass FIR filter with numTaps
// coefficients and normalized cutoff fc ∈ (0, 0.5) (fraction of the
// sample rate) using the windowed-sinc method. The filter has unit DC
// gain. It panics on invalid arguments.
func FIRLowpass(numTaps int, fc float64, w Window) []float64 {
	if numTaps < 3 {
		panic("dsp: FIRLowpass needs at least 3 taps")
	}
	if fc <= 0 || fc >= 0.5 {
		panic("dsp: FIRLowpass cutoff out of (0, 0.5)")
	}
	h := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	for n := range h {
		t := float64(n) - mid
		var s float64
		if t == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		h[n] = s * windowValue(w, n, numTaps)
	}
	// Normalize to exact unit DC gain.
	var sum float64
	for _, v := range h {
		sum += v
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

func windowValue(w Window, n, numTaps int) float64 {
	x := float64(n) / float64(numTaps-1)
	switch w {
	case Hamming:
		return 0.54 - 0.46*math.Cos(2*math.Pi*x)
	case Blackman:
		return 0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x)
	default:
		return 1
	}
}

// Convolve returns the full linear convolution of x and h, of length
// len(x)+len(h)−1. Either input may be empty, yielding an empty result.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(h)-1)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, hj := range h {
			out[i+j] += xi * hj
		}
	}
	return out
}

// FilterSame filters x with h and returns an output aligned with x (the
// "same" mode of convolution): group delay of the linear-phase filter is
// removed so features stay time-aligned.
func FilterSame(x, h []float64) []float64 {
	full := Convolve(x, h)
	if full == nil {
		return nil
	}
	start := (len(h) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[start:start+len(x)])
	return out
}
