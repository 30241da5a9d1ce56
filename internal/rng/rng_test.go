package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the canonical splitmix64.c.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	s := NewSplitMix64(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("SplitMix64 value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed generators matched %d/1000 draws", same)
	}
}

func TestXoshiroFloat64Range(t *testing.T) {
	x := New(7)
	for i := 0; i < 100000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestXoshiroIntnUniform(t *testing.T) {
	x := New(1)
	const n, draws = 10, 200000
	var counts [n]int
	for i := 0; i < draws; i++ {
		v := x.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	// Chi-squared test with 9 dof; 27.88 is the 0.1% critical value.
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn chi-squared %v exceeds critical value", chi2)
	}
}

func TestXoshiroIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	x := New(99)
	const n = 400000
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		v := x.NormFloat64()
		sum += v
		sumSq += v * v
		sumCube += v * v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Errorf("normal skew = %v, want ~0", skew)
	}
}

func TestBernoulli(t *testing.T) {
	x := New(5)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if x.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
}

func TestSign(t *testing.T) {
	x := New(6)
	pos := 0
	const n = 100000
	for i := 0; i < n; i++ {
		s := x.Sign()
		if s != 1 && s != -1 {
			t.Fatalf("Sign() = %d", s)
		}
		if s == 1 {
			pos++
		}
	}
	if math.Abs(float64(pos)/n-0.5) > 0.01 {
		t.Errorf("Sign() positive frequency = %v", float64(pos)/n)
	}
}

func TestSampleKProperties(t *testing.T) {
	x := New(11)
	f := func(seed uint64, kRaw, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		dst := make([]int, k)
		x.SampleK(dst, k, n)
		for i, v := range dst {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && dst[i-1] >= v { // strictly ascending ⇒ distinct
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKCoversRange(t *testing.T) {
	// Over many draws of k=12 from n=512 every row index must eventually
	// appear: the sensing matrix must be able to touch every sample.
	x := New(21)
	seen := make([]bool, 512)
	dst := make([]int, 12)
	for i := 0; i < 2000; i++ {
		x.SampleK(dst, 12, 512)
		for _, v := range dst {
			seen[v] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d never sampled", i)
		}
	}
}

func TestLCG16FullPeriod(t *testing.T) {
	g := NewLCG16(0)
	seen := make([]bool, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v := g.Uint16()
		if seen[v] {
			t.Fatalf("state %#x repeated after %d draws (period < 2^16)", v, i)
		}
		seen[v] = true
	}
}

func TestLCG16IntnRange(t *testing.T) {
	g := NewLCG16(1234)
	for i := 0; i < 100000; i++ {
		if v := g.Intn(512); v < 0 || v >= 512 {
			t.Fatalf("LCG16.Intn(512) = %d", v)
		}
	}
}

func TestLCG16SampleKDistinctSorted(t *testing.T) {
	g := NewLCG16(77)
	dst := make([]int, 12)
	for trial := 0; trial < 500; trial++ {
		g.SampleK(dst, 12, 512)
		for i := 1; i < len(dst); i++ {
			if dst[i-1] >= dst[i] {
				t.Fatalf("trial %d: SampleK not strictly ascending: %v", trial, dst)
			}
		}
	}
}

func TestLCG16EncoderDecoderAgree(t *testing.T) {
	// The decoder reconstructs the sensing support by cloning the
	// encoder's generator state; both sides must then see identical
	// streams.
	enc := NewLCG16(0xBEEF)
	for i := 0; i < 100; i++ {
		enc.Uint16()
	}
	dec := NewLCG16(enc.state)
	// Resynchronize: cloning the state means the *next* draws agree.
	encNext := make([]uint16, 50)
	decNext := make([]uint16, 50)
	for i := range encNext {
		encNext[i] = enc.Uint16()
	}
	// dec was seeded with enc's state *before* those draws; replay.
	for i := range decNext {
		decNext[i] = dec.Uint16()
	}
	for i := range encNext {
		if encNext[i] != decNext[i] {
			t.Fatalf("cloned generator diverged at draw %d", i)
		}
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	x := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.NormFloat64()
	}
	_ = sink
}

func BenchmarkLCG16SampleK(b *testing.B) {
	g := NewLCG16(1)
	dst := make([]int, 12)
	for i := 0; i < b.N; i++ {
		g.SampleK(dst, 12, 512)
	}
}
