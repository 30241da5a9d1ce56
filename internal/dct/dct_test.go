package dct

import (
	"math"
	"testing"
	"testing/quick"

	"csecg/internal/linalg"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[float64](0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := New[float64](-4); err == nil {
		t.Error("negative length accepted")
	}
	tr, err := New[float64](16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 16 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestPerfectReconstruction(t *testing.T) {
	tr, err := New[float64](128)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 128)
	state := uint64(3)
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x[i] = float64(int64(state%2001)-1000) / 50
	}
	c := make([]float64, 128)
	back := make([]float64, 128)
	tr.Forward(c, x)
	tr.Inverse(back, c)
	if d := maxAbsDiff(x, back); d > 1e-10 {
		t.Errorf("reconstruction error %v", d)
	}
}

func TestOrthonormalParseval(t *testing.T) {
	tr, _ := New[float64](64)
	f := func(seed uint64) bool {
		s := seed | 1
		x := make([]float64, 64)
		for i := range x {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			x[i] = float64(int64(s%2001)-1000) / 250
		}
		c := make([]float64, 64)
		tr.Forward(c, x)
		return math.Abs(float64(linalg.Norm2(x)-linalg.Norm2(c))) < 1e-10*(1+float64(linalg.Norm2(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCOnlySignal(t *testing.T) {
	// A constant lands entirely in coefficient 0 with value √n·c.
	tr, _ := New[float64](64)
	x := make([]float64, 64)
	for i := range x {
		x[i] = 2
	}
	c := make([]float64, 64)
	tr.Forward(c, x)
	if math.Abs(c[0]-2*math.Sqrt(64)) > 1e-10 {
		t.Errorf("DC coefficient %v, want %v", c[0], 2*math.Sqrt(64))
	}
	for k := 1; k < 64; k++ {
		if math.Abs(c[k]) > 1e-10 {
			t.Fatalf("coefficient %d = %v, want 0", k, c[k])
		}
	}
}

func TestCosineIsSparse(t *testing.T) {
	// A pure half-integer-frequency cosine (a DCT basis function) maps
	// to a single coefficient.
	const n = 128
	tr, _ := New[float64](n)
	const k0 = 7
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(math.Pi * float64(2*i+1) * k0 / (2 * n))
	}
	c := make([]float64, n)
	tr.Forward(c, x)
	for k := 0; k < n; k++ {
		want := 0.0
		if k == k0 {
			want = math.Sqrt(n / 2.0)
		}
		if math.Abs(c[k]-want) > 1e-9 {
			t.Fatalf("coefficient %d = %v, want %v", k, c[k], want)
		}
	}
}

func TestSynthesisOpAdjoint(t *testing.T) {
	tr, _ := New[float64](96)
	if mm := linalg.AdjointMismatch(tr.SynthesisOp(), 5); mm > 1e-10 {
		t.Errorf("adjoint mismatch %v", mm)
	}
}

func TestFloat32(t *testing.T) {
	tr, err := New[float32](64)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 64)
	for i := range x {
		x[i] = float32(math.Sin(0.2 * float64(i)))
	}
	c := make([]float32, 64)
	back := make([]float32, 64)
	tr.Forward(c, x)
	tr.Inverse(back, c)
	if d := maxAbsDiff(x, back); d > 1e-4 {
		t.Errorf("float32 reconstruction error %v", d)
	}
}

func BenchmarkForward512(b *testing.B) {
	tr, _ := New[float32](512)
	x := make([]float32, 512)
	c := make([]float32, 512)
	for i := range x {
		x[i] = float32(i % 37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(c, x)
	}
}

// maxAbsDiff returns max_i |a[i]−b[i]|.
func maxAbsDiff[T linalg.Float](a, b []T) T {
	var m T
	for i := range a {
		m = max(m, a[i]-b[i], b[i]-a[i])
	}
	return m
}
