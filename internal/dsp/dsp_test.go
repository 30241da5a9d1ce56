package dsp

import (
	"math"
	"testing"

	"csecg/internal/rng"
)

func TestFIRLowpassDCGain(t *testing.T) {
	for _, w := range []Window{Rectangular, Hamming, Blackman} {
		h := FIRLowpass(63, 0.2, w)
		var sum float64
		for _, v := range h {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("window %d: DC gain = %v, want 1", w, sum)
		}
	}
}

func TestFIRLowpassSymmetric(t *testing.T) {
	h := FIRLowpass(51, 0.15, Hamming)
	for i := range h {
		j := len(h) - 1 - i
		if math.Abs(h[i]-h[j]) > 1e-15 {
			t.Fatalf("tap %d and %d differ: %v vs %v (not linear phase)", i, j, h[i], h[j])
		}
	}
}

// frequencyResponseMag returns |H(e^{j2πf})| of the FIR filter h at
// normalized frequency f ∈ [0, 0.5].
func frequencyResponseMag(h []float64, f float64) float64 {
	var re, im float64
	for n, v := range h {
		re += v * math.Cos(2*math.Pi*f*float64(n))
		im -= v * math.Sin(2*math.Pi*f*float64(n))
	}
	return math.Hypot(re, im)
}

func TestFIRLowpassStopband(t *testing.T) {
	h := FIRLowpass(101, 0.1, Blackman)
	// Passband: near-unit gain at DC and 0.05.
	if g := frequencyResponseMag(h, 0.0); math.Abs(g-1) > 0.01 {
		t.Errorf("gain at DC = %v", g)
	}
	if g := frequencyResponseMag(h, 0.05); math.Abs(g-1) > 0.05 {
		t.Errorf("gain at 0.05 = %v", g)
	}
	// Stopband: strong attenuation past 1.5× cutoff.
	for _, f := range []float64{0.18, 0.25, 0.4, 0.49} {
		if g := frequencyResponseMag(h, f); g > 0.01 {
			t.Errorf("stopband gain at %v = %v, want < 0.01", f, g)
		}
	}
}

func TestFIRLowpassPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { FIRLowpass(2, 0.2, Hamming) },
		func() { FIRLowpass(11, 0, Hamming) },
		func() { FIRLowpass(11, 0.5, Hamming) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestConvolveKnown(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{1, 1})
	want := []float64{1, 3, 5, 3}
	if len(got) != len(want) {
		t.Fatalf("Convolve length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Convolve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Convolve(nil, []float64{1}) != nil {
		t.Error("Convolve with empty input should be nil")
	}
}

func TestConvolveCommutative(t *testing.T) {
	// Seeded fractional inputs of mixed scale, with zeros (which
	// Convolve skips), −0 and ±1e3 at the old input range's edges.
	g := rng.New(91)
	draw := func() []float64 {
		v := make([]float64, 1+g.Intn(40))
		for i := range v {
			switch g.Intn(8) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Copysign(0, -1)
			case 2:
				v[i] = float64(1-2*g.Intn(2)) * 1e3
			default:
				v[i] = g.NormFloat64() * math.Pow(10, 3*g.Float64()-1)
			}
		}
		return v
	}
	abs := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = math.Abs(x)
		}
		return out
	}
	for range 200 {
		a, b := draw(), draw()
		ab, ba := Convolve(a, b), Convolve(b, a)
		// Σ|aᵢbⱼ| bounds what summing the same products in another
		// order can change.
		mag := Convolve(abs(a), abs(b))
		if len(ab) != len(a)+len(b)-1 || len(ba) != len(ab) {
			t.Fatalf("lengths %d and %d give outputs of %d and %d", len(a), len(b), len(ab), len(ba))
		}
		for i := range ab {
			if math.Abs(ab[i]-ba[i]) > 1e-13*mag[i] {
				t.Fatalf("a=%v b=%v: (a*b)[%d] = %v, (b*a)[%d] = %v", a, b, i, ab[i], i, ba[i])
			}
		}
	}
}

func TestFilterSameAlignment(t *testing.T) {
	// An impulse through a symmetric filter must stay centered.
	x := make([]float64, 21)
	x[10] = 1
	h := FIRLowpass(31, 0.2, Hamming)
	y := FilterSame(x, h)
	if len(y) != len(x) {
		t.Fatalf("FilterSame length %d, want %d", len(y), len(x))
	}
	// Peak must remain at index 10.
	best, bestIdx := 0.0, -1
	for i, v := range y {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx != 10 {
		t.Errorf("impulse peak moved to %d, want 10", bestIdx)
	}
}

func TestResamplerRatioReduced(t *testing.T) {
	r := NewResampler(256, 360, 16)
	if r.l != 32 || r.m != 45 {
		t.Errorf("ratio = %d/%d, want 32/45", r.l, r.m)
	}
}

func TestResamplerOutputLength(t *testing.T) {
	x := make([]float64, 3600) // 10 s at 360 Hz
	y := Resample360To256(x)
	want := (3600*32 + 44) / 45 // = 2560
	if len(y) != want {
		t.Errorf("output length %d, want %d", len(y), want)
	}
}

func TestResamplerPreservesSine(t *testing.T) {
	// 5 Hz sine at 360 Hz in, expect the same 5 Hz sine at 256 Hz out.
	const fs, f = 360.0, 5.0
	n := 3600
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	y := Resample360To256(x)
	// Compare against the ideal 256 Hz sine, skipping filter edges.
	const fsOut = 256.0
	var maxErr float64
	for i := 100; i < len(y)-100; i++ {
		want := math.Sin(2 * math.Pi * f * float64(i) / fsOut)
		if e := math.Abs(y[i] - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.01 {
		t.Errorf("max resampling error %v, want < 0.01", maxErr)
	}
}

func TestResamplerDCPreserved(t *testing.T) {
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 2.5
	}
	y := NewResampler(32, 45, 24).Process(x)
	for i := 200; i < len(y)-200; i++ {
		if math.Abs(y[i]-2.5) > 1e-3 {
			t.Fatalf("DC level at %d = %v, want 2.5", i, y[i])
		}
	}
}

func TestResamplerIdentity(t *testing.T) {
	// L == M reduces to 1/1: output ≈ input away from edges.
	x := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(0.05 * float64(i))
	}
	y := NewResampler(3, 3, 16).Process(x)
	if len(y) != len(x) {
		t.Fatalf("identity resampler length %d, want %d", len(y), len(x))
	}
	for i := 50; i < len(x)-50; i++ {
		if math.Abs(y[i]-x[i]) > 1e-3 {
			t.Fatalf("identity resampler deviates at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestResamplerEmptyAndPanics(t *testing.T) {
	if NewResampler(2, 1, 8).Process(nil) != nil {
		t.Error("Process(nil) should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for L=0")
		}
	}()
	NewResampler(0, 1, 8)
}

func BenchmarkResample10s(b *testing.B) {
	x := make([]float64, 3600)
	for i := range x {
		x[i] = math.Sin(0.1 * float64(i))
	}
	r := NewResampler(32, 45, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Process(x)
	}
}

func BenchmarkFIRLowpassDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FIRLowpass(769, 0.01, Blackman)
	}
}
