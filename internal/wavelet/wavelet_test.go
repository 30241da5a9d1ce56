package wavelet

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"csecg/internal/linalg"
)

func TestDaubechiesHaar(t *testing.T) {
	h, err := DaubechiesFilter(1)
	if err != nil {
		t.Fatal(err)
	}
	v := 1 / math.Sqrt2
	if len(h) != 2 || math.Abs(h[0]-v) > 1e-15 || math.Abs(h[1]-v) > 1e-15 {
		t.Fatalf("Haar filter = %v", h)
	}
}

func TestDaubechiesDb2KnownValues(t *testing.T) {
	// db2 has the closed form ((1±√3)/(4√2), (3±√3)/(4√2)).
	h, err := DaubechiesFilter(2)
	if err != nil {
		t.Fatal(err)
	}
	s3 := math.Sqrt(3)
	want := []float64{
		(1 + s3) / (4 * math.Sqrt2),
		(3 + s3) / (4 * math.Sqrt2),
		(3 - s3) / (4 * math.Sqrt2),
		(1 - s3) / (4 * math.Sqrt2),
	}
	if len(h) != 4 {
		t.Fatalf("db2 length %d, want 4", len(h))
	}
	// The construction may yield the reversed filter; both are valid
	// orthonormal QMF pairs. Accept either orientation.
	match := func(a, b []float64) bool {
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	rev := []float64{want[3], want[2], want[1], want[0]}
	if !match(h, want) && !match(h, rev) {
		t.Fatalf("db2 filter = %v, want %v (either orientation)", h, want)
	}
}

func TestDaubechiesOrthonormality(t *testing.T) {
	for p := 1; p <= 10; p++ {
		h, err := DaubechiesFilter(p)
		if err != nil {
			t.Fatalf("order %d: %v", p, err)
		}
		if len(h) != 2*p {
			t.Fatalf("order %d: length %d, want %d", p, len(h), 2*p)
		}
		var sum float64
		for _, v := range h {
			sum += v
		}
		if math.Abs(sum-math.Sqrt2) > 1e-9 {
			t.Errorf("order %d: Σh = %v, want √2", p, sum)
		}
		// Shifted orthonormality: Σ h[n]h[n+2k] = δ_k.
		for k := 0; k < p; k++ {
			var dot float64
			for n := 0; n+2*k < len(h); n++ {
				dot += h[n] * h[n+2*k]
			}
			want := 0.0
			if k == 0 {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Errorf("order %d shift %d: autocorrelation %v, want %v", p, k, dot, want)
			}
		}
	}
}

func TestDaubechiesVanishingMoments(t *testing.T) {
	// The wavelet filter g of Daubechies-p annihilates polynomials of
	// degree < p: Σ g[n]·n^m = 0 for m = 0..p−1. This pins the filter to
	// being genuinely Daubechies, not just any orthonormal pair.
	for p := 1; p <= 10; p++ {
		h, err := DaubechiesFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		g := QMF(h)
		for m := 0; m < p; m++ {
			var s, scale float64
			for n, v := range g {
				s += v * math.Pow(float64(n), float64(m))
				scale += math.Abs(v) * math.Pow(float64(n), float64(m))
			}
			if scale == 0 {
				scale = 1
			}
			if math.Abs(s)/scale > 1e-7 {
				t.Errorf("order %d: moment %d = %v (relative %v), want 0", p, m, s, s/scale)
			}
		}
	}
}

func TestDaubechiesInvalidOrder(t *testing.T) {
	for _, p := range []int{0, -1, 11} {
		if _, err := DaubechiesFilter(p); err == nil {
			t.Errorf("order %d: expected error", p)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct{ order, n, levels int }{
		{4, 0, 1},    // bad length
		{4, 512, 0},  // bad levels
		{4, 502, 2},  // not divisible
		{4, 512, 7},  // coarsest block 4 < 8 taps
		{11, 512, 3}, // bad order
	}
	for _, c := range cases {
		if _, err := New[float64](c.order, c.n, c.levels); err == nil {
			t.Errorf("New(%d, %d, %d): expected error", c.order, c.n, c.levels)
		}
	}
	if _, err := New[float64](4, 512, 5); err != nil {
		t.Errorf("New(4, 512, 5): %v", err)
	}
}

func TestMaxLevels(t *testing.T) {
	if got := MaxLevels(4, 512); got != 6 {
		t.Errorf("MaxLevels(4, 512) = %d, want 6", got)
	}
	if got := MaxLevels(1, 512); got != 8 {
		t.Errorf("MaxLevels(1, 512) = %d, want 8", got)
	}
	if got := MaxLevels(8, 16); got != 0 {
		t.Errorf("MaxLevels(8, 16) = %d, want 0", got)
	}
}

func TestPerfectReconstruction(t *testing.T) {
	for _, order := range []int{1, 2, 4, 8} {
		for _, levels := range []int{1, 3, 5} {
			w, err := New[float64](order, 512, levels)
			if err != nil {
				t.Fatalf("order %d levels %d: %v", order, levels, err)
			}
			x := make([]float64, 512)
			state := uint64(7)
			for i := range x {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				x[i] = float64(int64(state%4001)-2000) / 100
			}
			coeffs := make([]float64, 512)
			back := make([]float64, 512)
			w.Forward(coeffs, x)
			w.Inverse(back, coeffs)
			if d := maxAbsDiff(x, back); d > 1e-9 {
				t.Errorf("order %d levels %d: reconstruction error %v", order, levels, d)
			}
		}
	}
}

func TestParsevalEnergyPreserved(t *testing.T) {
	// Orthonormal transform preserves the l2 norm.
	w, err := New[float64](4, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		x := make([]float64, 256)
		s := seed | 1
		for i := range x {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			x[i] = float64(int64(s%2001)-1000) / 250
		}
		coeffs := make([]float64, 256)
		w.Forward(coeffs, x)
		return math.Abs(float64(linalg.Norm2(x)-linalg.Norm2(coeffs))) < 1e-9*(1+float64(linalg.Norm2(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesisOpAdjoint(t *testing.T) {
	w, err := New[float64](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mm := linalg.AdjointMismatch(w.SynthesisOp(), 5); mm > 1e-10 {
		t.Errorf("synthesis operator adjoint mismatch %v", mm)
	}
}

func TestForwardOfConstantIsDCOnly(t *testing.T) {
	// A constant signal must land entirely in the approximation band:
	// all detail coefficients vanish (one vanishing moment is enough).
	w, err := New[float64](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 512)
	for i := range x {
		x[i] = 3.25
	}
	coeffs := make([]float64, 512)
	w.Forward(coeffs, x)
	coarse := 512 >> 5
	for i := coarse; i < len(coeffs); i++ {
		if math.Abs(coeffs[i]) > 1e-9 {
			t.Fatalf("detail coefficient %d = %v, want 0", i, coeffs[i])
		}
	}
}

func TestRampDetailsVanishDb2Plus(t *testing.T) {
	// db2 has two vanishing moments: a linear ramp's interior detail
	// coefficients are zero (periodization affects only the wrap-around).
	w, err := New[float64](2, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i)
	}
	coeffs := make([]float64, 256)
	w.Forward(coeffs, x)
	// details are coeffs[128:256]; wrap-around pollutes the last couple.
	for i := 128; i < 254; i++ {
		if math.Abs(coeffs[i]) > 1e-8 {
			t.Fatalf("ramp detail %d = %v, want ~0", i, coeffs[i])
		}
	}
}

func TestFloat32Instantiation(t *testing.T) {
	w, err := New[float32](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 512)
	for i := range x {
		x[i] = float32(math.Sin(float64(i) * 0.1))
	}
	coeffs := make([]float32, 512)
	back := make([]float32, 512)
	w.Forward(coeffs, x)
	w.Inverse(back, coeffs)
	if d := maxAbsDiff(x, back); d > 1e-5 {
		t.Errorf("float32 reconstruction error %v", d)
	}
}

func TestECGLikeSignalIsSparse(t *testing.T) {
	// A spiky quasi-periodic signal should compress: keeping 10% of db4
	// coefficients must retain > 99% of the energy. This is the sparsity
	// premise of the whole paper.
	n := 512
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / 256
		phase := math.Mod(ti, 0.8) / 0.8
		// Narrow Gaussian "R peak" plus small T wave per 0.8 s beat.
		x[i] = 1000*math.Exp(-math.Pow((phase-0.3)*30, 2)) +
			200*math.Exp(-math.Pow((phase-0.55)*8, 2))
	}
	w, err := New[float64](4, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([]float64, n)
	w.Forward(coeffs, x)
	if f := topKNormFraction(coeffs, n/10); f < 0.99 {
		t.Errorf("top-10%% coefficients hold %.4f of energy, want > 0.99", f)
	}
}

// loopFloat32 is float32 under another name. The AVX2 kernels dispatch
// on the element type float32 itself, so a Transform[loopFloat32] runs
// the Go loops with the same float32 arithmetic: the /ref half of the
// benchmarks below.
type loopFloat32 float32

// benchTransform times one 512-sample db4 transform over 5 levels on
// the Go loops (ref) and on the AVX2 kernels (kernel, skipped without
// AVX2). The benchmarks carry the wavelet.analysis and wavelet.synth
// trace stages.
func benchTransform(b *testing.B, inverse bool) {
	b.Run("ref", func(b *testing.B) { benchTransformOf[loopFloat32](b, inverse) })
	b.Run("kernel", func(b *testing.B) {
		if !linalg.HasAVX2() {
			b.Skip("no AVX2 on this CPU")
		}
		benchTransformOf[float32](b, inverse)
	})
}

func benchTransformOf[T linalg.Float](b *testing.B, inverse bool) {
	w, err := New[T](4, 512, 5)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]T, 512)
	for i := range x {
		x[i] = T(i % 37)
	}
	dst := make([]T, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inverse {
			w.Inverse(dst, x)
		} else {
			w.Forward(dst, x)
		}
	}
}

func BenchmarkForward512Db4Float32(b *testing.B) { benchTransform(b, false) }
func BenchmarkInverse512Db4Float32(b *testing.B) { benchTransform(b, true) }

func BenchmarkDaubechiesConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DaubechiesFilter(8); err != nil {
			b.Fatal(err)
		}
	}
}

// topKNormFraction returns the share of c's ℓ2 norm that its k
// largest-magnitude entries hold.
func topKNormFraction(c []float64, k int) float64 {
	sq := make([]float64, len(c))
	total := 0.0
	for i, v := range c {
		sq[i] = v * v
		total += sq[i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sq)))
	kept := 0.0
	for _, v := range sq[:k] {
		kept += v
	}
	return math.Sqrt(kept / total)
}

// maxAbsDiff returns max_i |a[i]−b[i]|.
func maxAbsDiff[T linalg.Float](a, b []T) T {
	var m T
	for i := range a {
		m = max(m, a[i]-b[i], b[i]-a[i])
	}
	return m
}
