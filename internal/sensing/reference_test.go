package sensing

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
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

// edgeValues are the IEEE-754 inputs where a reordered or fused sum
// would show: signed zeros, the smallest subnormal, infinities (whose
// sums turn NaN) and the largest finite value (whose sums overflow).
func edgeValues[T linalg.Float]() []T {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	if _, f32 := any(T(0)).(float32); f32 {
		tiny, huge = math.SmallestNonzeroFloat32, math.MaxFloat32
	}
	negZero := T(math.Copysign(0, -1))
	return []T{0, negZero, T(tiny), T(-tiny), T(math.Inf(1)), T(math.Inf(-1)), T(huge), T(-huge)}
}

// opInputs returns the inputs the bit-identity test runs: a random
// vector with every seventh entry zero (the scatter skips zero
// columns), the same with an edge value at every fifth entry, and a
// vector of edge values only.
func opInputs[T linalg.Float](n int, seed uint64) [][]T {
	edges := edgeValues[T]()
	random := pseudoRandom[T](n, seed)
	for i := 0; i < len(random); i += 7 {
		random[i] = 0
	}
	mixed := append([]T(nil), random...)
	for i := 0; i < n; i += 5 {
		mixed[i] = edges[(i/5)%len(edges)]
	}
	only := make([]T, n)
	for i := range only {
		only[i] = edges[(i*3)%len(edges)]
	}
	return [][]T{random, mixed, only}
}

// sameBits compares bit patterns, and only NaN-ness where the reference
// is NaN: the payload of a NaN sum is not part of the contract.
func sameBits[T linalg.Float](got, want T) bool {
	if want != want {
		return got != got
	}
	return bits(got) == bits(want)
}

// runsGatherKernels reports whether op is the AVX2 gather form of Φ.
func runsGatherKernels[T linalg.Float](op linalg.Op[T]) bool {
	name := runtime.FuncForPC(reflect.ValueOf(op.Apply).Pointer()).Name()
	return strings.HasSuffix(name, "(*phiGathers).apply-fm")
}

func checkOpBits[T linalg.Float](t *testing.T) {
	// N = 512 windows at CR 50 (M = 256) and CR 80 (M = 102), d = 12:
	// the decoder's operating points. M = 100 leaves the last 8-row
	// group of the Apply gather partly masked.
	for _, m := range []int{256, 102, 100} {
		s, err := NewSparseBinaryLCG(m, 512, 12, 42)
		if err != nil {
			t.Fatal(err)
		}
		op := Op[T](s)
		name := fmt.Sprintf("%T M=%d", T(0), m)
		_, f32 := any(T(0)).(float32)
		if want := f32 && linalg.HasAVX2(); runsGatherKernels(op) != want {
			t.Fatalf("%s: gather kernels dispatched = %v, want %v (HasAVX2 %v)", name, !want, want, linalg.HasAVX2())
		}
		for in, x := range opInputs[T](512, uint64(m)) {
			got, want := make([]T, m), make([]T, m)
			op.Apply(got, x)
			refApply(s, want, x)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s input %d Apply: row %d is %v, reference %v", name, in, i, got[i], want[i])
				}
			}
		}
		for in, y := range opInputs[T](m, uint64(3*m)) {
			gotT, wantT := make([]T, 512), make([]T, 512)
			op.ApplyT(gotT, y)
			refApplyT(s, wantT, y)
			for i := range wantT {
				if !sameBits(gotT[i], wantT[i]) {
					t.Fatalf("%s input %d ApplyT: column %d is %v, reference %v", name, in, i, gotT[i], wantT[i])
				}
			}
		}
		checkMismatchPanics(t, name, op, m, 512)
	}
}

// checkMismatchPanics calls Apply and ApplyT with each operand one entry
// short or long and requires the dimension panic, with no entry of the
// destination's backing array written: the check runs before any
// kernel touches memory.
func checkMismatchPanics[T linalg.Float](t *testing.T, name string, op linalg.Op[T], m, n int) {
	t.Helper()
	cases := []struct {
		what      string
		transpose bool
		dst, src  int
	}{
		{"Apply short dst", false, m - 1, n}, {"Apply long dst", false, m + 1, n},
		{"Apply short x", false, m, n - 1}, {"Apply long x", false, m, n + 1},
		{"ApplyT short dst", true, n - 1, m}, {"ApplyT long dst", true, n + 1, m},
		{"ApplyT short y", true, n, m - 1}, {"ApplyT long y", true, n, m + 1},
	}
	for _, c := range cases {
		buf := make([]T, c.dst+8)
		for i := range buf {
			buf[i] = 7
		}
		src := pseudoRandom[T](c.src, 9)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "dimension mismatch") {
					t.Errorf("%s %s: recovered %q, want a dimension mismatch panic", name, c.what, msg)
				}
			}()
			if c.transpose {
				op.ApplyT(buf[:c.dst], src)
			} else {
				op.Apply(buf[:c.dst], src)
			}
		}()
		for i, v := range buf {
			if v != 7 {
				t.Fatalf("%s %s: entry %d written before the panic", name, c.what, i)
			}
		}
	}
}

// TestOpBitIdenticalToReference pins Φ's Apply and ApplyT to the plain
// scatter and gather loops bit for bit, at both float widths. On a CPU
// with AVX2 the float32 operator must run the gather kernels, so the
// test cannot pass on the Go loops alone.
func TestOpBitIdenticalToReference(t *testing.T) {
	t.Run("float32", checkOpBits[float32])
	t.Run("float64", checkOpBits[float64])
}
