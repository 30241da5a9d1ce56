package wavelet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"csecg/internal/linalg"
)

// The plain scalar filter-bank loops the production kernels replaced.
// They fix the reference summation order: every output accumulates its
// taps (analysis) or its contributions (synthesis) one at a time, in
// ascending order, from zero.

func refAnalyze[T linalg.Float](dst, x, h, g []T) {
	n := len(x)
	half := n / 2
	for k := 0; k < half; k++ {
		var a, d T
		base := 2 * k
		for i := 0; i < len(h); i++ {
			idx := base + i
			if idx >= n {
				idx -= n
			}
			v := x[idx]
			a += h[i] * v
			d += g[i] * v
		}
		dst[k] = a
		dst[half+k] = d
	}
}

func refSynthesize[T linalg.Float](dst, a, d, h, g []T) {
	n := len(dst)
	for i := range dst {
		dst[i] = 0
	}
	for k := range a {
		base := 2 * k
		av, dv := a[k], d[k]
		for i := 0; i < len(h); i++ {
			idx := base + i
			if idx >= n {
				idx -= n
			}
			dst[idx] += h[i]*av + g[i]*dv
		}
	}
}

func refForward[T linalg.Float](t *Transform[T], dst, x []T) {
	buf := append([]T(nil), x...)
	n := t.n
	for lev := 0; lev < t.levels; lev++ {
		refAnalyze(dst[:n], buf[:n], t.h, t.g)
		copy(buf[:n/2], dst[:n/2])
		n /= 2
	}
	copy(dst[:n], buf[:n])
}

func refInverse[T linalg.Float](t *Transform[T], dst, coeffs []T) {
	buf := append([]T(nil), coeffs...)
	n := t.n >> uint(t.levels)
	for lev := t.levels - 1; lev >= 0; lev-- {
		refSynthesize(dst[:2*n], buf[:n], buf[n:2*n], t.h, t.g)
		copy(buf[:2*n], dst[:2*n])
		n *= 2
	}
	copy(dst, buf)
}

// bits maps a value to its IEEE-754 encoding, so comparisons tell
// apart results that differ only in rounding (or in the sign of zero).
func bits[T linalg.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// requireSameBits compares bit patterns, and only NaN-ness where the
// reference is NaN: the payload of a NaN sum is not part of the
// contract.
func requireSameBits[T linalg.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		if want[i] != want[i] {
			if got[i] == got[i] {
				t.Fatalf("%s: entry %d is %v, reference NaN", what, i, got[i])
			}
			continue
		}
		if bits(got[i]) != bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), reference %v (%#x)", what, i, got[i], bits(got[i]), want[i], bits(want[i]))
		}
	}
}

// ecgLike fills a signal with a spiky, baseline-wandering waveform plus
// pseudo-random noise, so every coefficient is a long sum of mixed-sign
// products whose rounding depends on the summation order.
func ecgLike[T linalg.Float](n int, seed uint64) []T {
	x := make([]T, n)
	state := seed
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		noise := float64(int64(state%2001)-1000) / 997
		beat := 40 * math.Exp(-math.Pow(float64(i%97-48)/2.5, 2))
		x[i] = T(beat + 3*math.Sin(float64(i)/17) + noise)
	}
	return x
}

// withEdges returns x with an IEEE-754 edge value at every seventh
// entry: signed zeros, the smallest subnormal, infinities (whose sums
// turn NaN) and the largest finite value (whose sums overflow).
func withEdges[T linalg.Float](x []T) []T {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	if _, f32 := any(T(0)).(float32); f32 {
		tiny, huge = math.SmallestNonzeroFloat32, math.MaxFloat32
	}
	edges := []T{0, T(math.Copysign(0, -1)), T(tiny), T(-tiny), T(math.Inf(1)), T(math.Inf(-1)), T(huge), T(-huge)}
	out := append([]T(nil), x...)
	for i := 3; i < len(out); i += 7 {
		out[i] = edges[(i/7)%len(edges)]
	}
	return out
}

// requireDispatch fails unless the float32 splits of a 512-sample db4
// level run on the AVX2 kernels exactly when the CPU has AVX2, and no
// other element type does.
func requireDispatch[T linalg.Float](t *testing.T) {
	t.Helper()
	tr, err := New[T](4, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, f32 := any(T(0)).(float32)
	want := f32 && linalg.HasAVX2()
	buf, x := make([]T, 512), ecgLike[T](512, 1)
	ext := append(x, x[:len(tr.h)-2]...)
	if got := analyzeKernel(buf, ext, tr.h, tr.g) > 0; got != want {
		t.Fatalf("%T: analysis kernel dispatched = %v, want %v (HasAVX2 %v)", T(0), got, want, linalg.HasAVX2())
	}
	if got := synthesizeKernel(buf, x[:256], x[256:], tr.h, tr.g, len(tr.h)/2-1) > 0; got != want {
		t.Fatalf("%T: synthesis kernel dispatched = %v, want %v (HasAVX2 %v)", T(0), got, want, linalg.HasAVX2())
	}
}

// requireMismatchPanics calls Forward and Inverse with each operand one
// entry short or long and requires the length panic, with no entry of
// the destination's backing array written: the check runs before any
// kernel touches memory.
func requireMismatchPanics[T linalg.Float](t *testing.T, tr *Transform[T]) {
	t.Helper()
	n := tr.Len()
	for _, c := range []struct {
		what     string
		inverse  bool
		dst, src int
	}{
		{"Forward short dst", false, n - 1, n}, {"Forward long dst", false, n + 1, n},
		{"Forward short x", false, n, n - 1}, {"Forward long x", false, n, n + 1},
		{"Inverse short dst", true, n - 1, n}, {"Inverse long dst", true, n + 1, n},
		{"Inverse short coeffs", true, n, n - 1}, {"Inverse long coeffs", true, n, n + 1},
	} {
		buf := make([]T, c.dst+8)
		for i := range buf {
			buf[i] = 7
		}
		src := ecgLike[T](c.src, 2)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "length mismatch") {
					t.Errorf("%T %s: recovered %q, want a length mismatch panic", T(0), c.what, msg)
				}
			}()
			if c.inverse {
				tr.Inverse(buf[:c.dst], src)
			} else {
				tr.Forward(buf[:c.dst], src)
			}
		}()
		for i, v := range buf {
			if v != 7 {
				t.Fatalf("%T %s: entry %d written before the panic", T(0), c.what, i)
			}
		}
	}
}

// The shape sweep of checkTransformBits. The lengths and orders are
// chosen so that, at float32 on AVX2, requireSweepCovers finds every
// branch of the kernel dispatch in some level.
var (
	sweepLengths = []int{8, 24, 40, 64, 88, 136, 200, 256, 360, 512}
	sweepOrders  = []int{1, 2, 3, 4, 10}
)

// requireSweepCovers fails unless the sweep has, for both analysis
// (len(dst)/2 outputs per level) and synthesis (half−taps/2+1 unwrapped
// output pairs per level), a level below 8 outputs, which runs the Go
// loops; a level whose count is not a multiple of 8, which ends with the
// overlapping block; and levels with an odd and an even number (at
// least two) of full blocks, so the 2-block loop runs with and without
// its single-block tail. db1, whose analysis extension is empty, and
// db10 must each run both kernels.
func requireSweepCovers(t *testing.T) {
	t.Helper()
	seen := map[string]bool{}
	note := func(kind string, order, count int) {
		if count < 8 {
			seen[kind+" below 8"] = true
			return
		}
		seen[fmt.Sprintf("%s db%d", kind, order)] = true
		if count%8 != 0 {
			seen[kind+" overlap"] = true
		}
		if blocks := count / 8; blocks >= 2 {
			seen[fmt.Sprintf("%s blocks%%2=%d", kind, blocks%2)] = true
		}
	}
	for _, n := range sweepLengths {
		for _, order := range sweepOrders {
			for m, lev := n, 0; lev < MaxLevels(order, n); lev, m = lev+1, m/2 {
				note("analysis", order, m/2)
				note("synthesis", order, m/2-order+1)
			}
		}
	}
	for _, kind := range []string{"analysis", "synthesis"} {
		for _, want := range []string{"below 8", "overlap", "blocks%2=0", "blocks%2=1", "db1", "db10"} {
			if !seen[kind+" "+want] {
				t.Errorf("the shape sweep has no %s level with %s", kind, want)
			}
		}
	}
}

func checkTransformBits[T linalg.Float](t *testing.T) {
	requireDispatch[T](t)
	for _, n := range sweepLengths {
		for _, order := range sweepOrders {
			for levels := 1; levels <= MaxLevels(order, n); levels++ {
				tr, err := New[T](order, n, levels)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%T n=%d db%d levels=%d", T(0), n, order, levels)
				random := ecgLike[T](n, uint64(n*31+levels))
				for in, x := range [][]T{random, withEdges(random)} {
					got, want := make([]T, n), make([]T, n)
					tr.Forward(got, x)
					refForward(tr, want, x)
					requireSameBits(t, fmt.Sprintf("%s input %d Forward", name, in), got, want)
					tr.Inverse(got, x)
					refInverse(tr, want, x)
					requireSameBits(t, fmt.Sprintf("%s input %d Inverse", name, in), got, want)
				}
			}
		}
	}
	tr, err := New[T](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireMismatchPanics(t, tr)
}

// TestTransformBitIdenticalToReference pins the production kernels to
// the scalar reference loops bit for bit. Any reassociation of a sum,
// a reciprocal multiply or a fused multiply-add in the kernels changes
// the rounding of some coefficient and fails it, and so does a kernel
// that reads the wrong sample: an analysis extension one sample short,
// an overlapping block shifted by one, or the wrapped synthesis head
// run in the kernel's order. The sweep (requireSweepCovers) runs
// levels below 8 outputs on the Go loops and, on the kernels, the
// overlapping last block, the 2-block loop with and without its
// single-block tail, and the shortest (db1) and longest (db10) filters.
// On a CPU with AVX2 the float32 splits must run the kernels, so the
// test cannot pass on the Go loops alone.
func TestTransformBitIdenticalToReference(t *testing.T) {
	requireSweepCovers(t)
	t.Run("float32", checkTransformBits[float32])
	t.Run("float64", checkTransformBits[float64])
}
