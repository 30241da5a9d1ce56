package dsp

// Resampler converts a signal between two sample rates related by a
// rational factor L/M (upsample by L, low-pass, downsample by M) using a
// polyphase decomposition so only the retained output samples are ever
// computed.
type Resampler struct {
	l, m  int
	proto []float64 // low-pass prototype at rate fs·L, gain L
}

// NewResampler creates an L/M rational resampler. tapsPerPhase controls
// the prototype length (len = tapsPerPhase·L, a few tens of ms of signal
// at ECG rates is plenty). It panics if L or M is not positive.
func NewResampler(l, m, tapsPerPhase int) *Resampler {
	if l <= 0 || m <= 0 {
		panic("dsp: NewResampler with non-positive factor")
	}
	if tapsPerPhase < 2 {
		tapsPerPhase = 2
	}
	g := gcd(l, m)
	l, m = l/g, m/g
	numTaps := tapsPerPhase*l | 1 // odd length for symmetric linear phase
	// Cutoff at min(1/(2L), 1/(2M)) of the upsampled rate.
	fc := 0.5 / float64(max(l, m))
	proto := FIRLowpass(numTaps, fc*0.92, Blackman) // 8% transition guard
	// Interpolation gain: the zero-stuffed signal has 1/L the power.
	for i := range proto {
		proto[i] *= float64(l)
	}
	return &Resampler{l: l, m: m, proto: proto}
}

// Process resamples x from rate fs to fs·L/M. The output length is
// ceil(len(x)·L/M). Polyphase evaluation: output sample k taps the
// prototype at phase (k·M mod L) and input offset (k·M div L).
func (r *Resampler) Process(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	outLen := (len(x)*r.l + r.m - 1) / r.m
	out := make([]float64, outLen)
	center := (len(r.proto) - 1) / 2 // remove group delay (in upsampled ticks)
	for k := 0; k < outLen; k++ {
		up := k*r.m + center // index in the upsampled-time grid
		// x contributes at upsampled positions i·L; find the taps that hit them.
		// h index j must satisfy (up − j) ≡ 0 (mod L).
		jStart := up % r.l
		var acc float64
		for j := jStart; j < len(r.proto); j += r.l {
			i := (up - j) / r.l
			if i < 0 {
				break
			}
			if i >= len(x) {
				continue
			}
			acc += r.proto[j] * x[i]
		}
		out[k] = acc
	}
	return out
}

// Resample360To256 converts a 360 Hz MIT-BIH-format channel to the 256 Hz
// rate the mote encoder consumes, matching the paper's Section IV-A.1.
func Resample360To256(x []float64) []float64 {
	return NewResampler(32, 45, 24).Process(x)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
