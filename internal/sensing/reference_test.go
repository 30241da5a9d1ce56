package sensing

import (
	"fmt"
	"math"
	"testing"

	"csecg/internal/linalg"
)

// refApply and refApplyT are the plain column-scatter and column-gather
// loops the operator started from; they fix the reference summation
// order of every output.
func refApply[T linalg.Float](s *SparseBinary, dst, x []T) {
	scale := T(s.scale)
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < s.n; c++ {
		v := x[c] * scale
		if v == 0 {
			continue
		}
		for _, r := range s.Support(c) {
			dst[r] += v
		}
	}
}

func refApplyT[T linalg.Float](s *SparseBinary, dst, y []T) {
	scale := T(s.scale)
	for c := 0; c < s.n; c++ {
		var acc T
		for _, r := range s.Support(c) {
			acc += y[r]
		}
		dst[c] = acc * scale
	}
}

func bits[T linalg.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

func pseudoRandom[T linalg.Float](n int, seed uint64) []T {
	v := make([]T, n)
	state := seed
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[i] = T(int64(state%20001)-10000) / 37
	}
	return v
}

func checkOpBits[T linalg.Float](t *testing.T) {
	// N = 512 windows at CR 50 (M = 256) and CR 80 (M = 102), d = 12:
	// the decoder's operating points.
	for _, m := range []int{256, 102} {
		s, err := NewSparseBinaryLCG(m, 512, 12, 42)
		if err != nil {
			t.Fatal(err)
		}
		op := Op[T](s)
		name := fmt.Sprintf("%T M=%d", T(0), m)
		x := pseudoRandom[T](512, uint64(m))
		for i := 0; i < len(x); i += 7 {
			x[i] = 0 // exercise the skipped zero columns
		}
		got, want := make([]T, m), make([]T, m)
		op.Apply(got, x)
		refApply(s, want, x)
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				t.Fatalf("%s Apply: row %d is %v, reference %v", name, i, got[i], want[i])
			}
		}
		y := pseudoRandom[T](m, uint64(3*m))
		gotT, wantT := make([]T, 512), make([]T, 512)
		op.ApplyT(gotT, y)
		refApplyT(s, wantT, y)
		for i := range wantT {
			if bits(gotT[i]) != bits(wantT[i]) {
				t.Fatalf("%s ApplyT: column %d is %v, reference %v", name, i, gotT[i], wantT[i])
			}
		}
	}
}

// TestOpBitIdenticalToReference pins Φ's Apply and ApplyT to the plain
// scatter and gather loops bit for bit, at both float widths.
func TestOpBitIdenticalToReference(t *testing.T) {
	t.Run("float32", checkOpBits[float32])
	t.Run("float64", checkOpBits[float64])
}
