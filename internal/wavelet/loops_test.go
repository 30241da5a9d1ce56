package wavelet

import (
	"math"
	"testing"
)

func loopFixtures(t testing.TB, n int) (x, h, g, d1, d2, d3 []float32) {
	t.Helper()
	h64, err := DaubechiesFilter(4)
	if err != nil {
		t.Fatal(err)
	}
	g64 := QMF(h64)
	h = make([]float32, len(h64))
	g = make([]float32, len(g64))
	for i := range h64 {
		h[i] = float32(h64[i])
		g[i] = float32(g64[i])
	}
	x = make([]float32, n)
	state := uint64(5)
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x[i] = float32(int64(state%2001)-1000) / 50
	}
	return x, h, g, make([]float32, n), make([]float32, n), make([]float32, n)
}

func TestLoopShapesAgree(t *testing.T) {
	for _, n := range []int{16, 64, 512} {
		x, h, g, d1, d2, d3 := loopFixtures(t, n)
		refAnalyze(d1, x, h, g)
		analyzeOnceInnerVec(d2, x, h, g)
		analyzeSplit(d3, x, h, g)
		for i := range d1 {
			if math.Abs(float64(d1[i]-d2[i])) > 1e-3 {
				t.Fatalf("n=%d inner-vec diverges at %d: %v vs %v", n, i, d1[i], d2[i])
			}
			// The production outer-loop shape keeps the scalar
			// summation order, so it must agree exactly.
			if math.Float32bits(d1[i]) != math.Float32bits(d3[i]) {
				t.Fatalf("n=%d outer-vec diverges at %d: %v vs %v", n, i, d1[i], d3[i])
			}
		}
	}
}

func TestLoopShapesMatchTransform(t *testing.T) {
	// The loop-shape study must compute the same split as the production
	// transform's first level, bit for bit.
	const n = 256
	x, h, g, d1, _, _ := loopFixtures(t, n)
	refAnalyze(d1, x, h, g)
	w, err := New[float32](4, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float32, n)
	w.Forward(ref, x)
	for i := range ref {
		if math.Float32bits(ref[i]) != math.Float32bits(d1[i]) {
			t.Fatalf("loop study diverges from Transform at %d: %v vs %v", i, ref[i], d1[i])
		}
	}
}

// analyzeOnceInnerVec vectorizes the inner (tap) loop: partial sums are
// kept in four lanes over the taps and reduced horizontally per output —
// the shape the paper rejects because of the 2·I·(L−1) extra adds.
func analyzeOnceInnerVec(dst, x, h, g []float32) {
	n := len(x)
	half := n / 2
	taps := len(h)
	t4 := taps &^ 3
	for k := 0; k < half; k++ {
		base := 2 * k
		var a0, a1, a2, a3 float32
		var d0, d1, d2, d3 float32
		if base+taps <= n {
			// No wrap: contiguous 4-lane tap accumulation.
			for i := 0; i < t4; i += 4 {
				v0, v1, v2, v3 := x[base+i], x[base+i+1], x[base+i+2], x[base+i+3]
				a0 += h[i] * v0
				a1 += h[i+1] * v1
				a2 += h[i+2] * v2
				a3 += h[i+3] * v3
				d0 += g[i] * v0
				d1 += g[i+1] * v1
				d2 += g[i+2] * v2
				d3 += g[i+3] * v3
			}
			for i := t4; i < taps; i++ {
				v := x[base+i]
				a0 += h[i] * v
				d0 += g[i] * v
			}
		} else {
			for i := 0; i < taps; i++ {
				idx := base + i
				if idx >= n {
					idx -= n
				}
				v := x[idx]
				a0 += h[i] * v
				d0 += g[i] * v
			}
		}
		// Horizontal reduction — the cost inner-loop vectorization pays.
		dst[k] = (a0 + a1) + (a2 + a3)
		dst[half+k] = (d0 + d1) + (d2 + d3)
	}
}

// Benchmarks reproducing Fig. 5: outer-loop vectorization avoids the
// inner shape's horizontal reductions.

func BenchmarkFilterLoopScalar512(b *testing.B) {
	x, h, g, d, _, _ := loopFixtures(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refAnalyze(d, x, h, g)
	}
}

func BenchmarkFilterLoopInnerVec512(b *testing.B) {
	x, h, g, d, _, _ := loopFixtures(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeOnceInnerVec(d, x, h, g)
	}
}

func BenchmarkFilterLoopOuterVec512(b *testing.B) {
	x, h, g, d, _, _ := loopFixtures(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeSplit(d, x, h, g)
	}
}
