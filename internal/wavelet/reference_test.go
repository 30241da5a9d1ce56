package wavelet

import (
	"fmt"
	"math"
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

func requireSameBits[T linalg.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
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

func checkTransformBits[T linalg.Float](t *testing.T) {
	for _, n := range []int{64, 256, 512} {
		for _, order := range []int{1, 2, 4, 10} {
			for levels := 1; levels <= MaxLevels(order, n); levels++ {
				tr, err := New[T](order, n, levels)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%T n=%d db%d levels=%d", T(0), n, order, levels)
				x := ecgLike[T](n, uint64(n*31+levels))
				got, want := make([]T, n), make([]T, n)
				tr.Forward(got, x)
				refForward(tr, want, x)
				requireSameBits(t, name+" Forward", got, want)
				tr.Inverse(got, x)
				refInverse(tr, want, x)
				requireSameBits(t, name+" Inverse", got, want)
			}
		}
	}
}

// TestTransformBitIdenticalToReference pins the production kernels to
// the scalar reference loops bit for bit. Any reassociation of a sum,
// a reciprocal multiply or a fused multiply-add in the kernels changes
// the rounding of some coefficient and fails it. The level sweep runs
// every block length down to the filter length, so the 4-output blocks,
// the scalar remainder and the wrap tail are all hit.
func TestTransformBitIdenticalToReference(t *testing.T) {
	t.Run("float32", checkTransformBits[float32])
	t.Run("float64", checkTransformBits[float64])
}
