package solver

import (
	"math"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/rng"
)

// bits returns the IEEE-754 encoding of v, so comparisons tell −0 from
// +0.
func bits[T linalg.Float](v T) uint64 {
	switch v := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(v))
	case float64:
		return math.Float64bits(v)
	}
	panic("unreachable")
}

// stepInputs draws a FISTA pass input of length n. α_{k−1} is itself a
// shrunk vector with forced +0 and −0 entries, so the pass meets zero
// coefficients, zero steps and signed zeros.
func stepInputs[T linalg.Float](n int, seed uint64, thr T) (alphaPrev, yk, half []T) {
	g := rng.New(seed)
	alphaPrev, yk, half = make([]T, n), make([]T, n), make([]T, n)
	for i := range yk {
		yk[i] = T(g.NormFloat64())
		half[i] = T(0.1 * g.NormFloat64())
		switch i % 4 {
		case 0:
			alphaPrev[i] = 0
		case 1:
			alphaPrev[i] = T(math.Copysign(0, -1))
		default:
			alphaPrev[i] = linalg.ShrinkBranchless(T(g.NormFloat64()), thr)
		}
	}
	return alphaPrev, yk, half
}

// fistaStep is the plain-loop reference for fistaStepFused: the same
// maths in separate loops with the branchy soft threshold. The step
// point u = y_k − ∇f/L lands in half, so y_k survives the shrinkage for
// the restart product and is overwritten by y_{k+1} only afterwards.
func fistaStep[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, norms bool) fistaPass[T] {
	for i, h := range half {
		half[i] = yk[i] - step*(h+h)
	}
	linalg.SoftThreshold(alpha, half, thr)
	var ip T
	for i, a := range alpha {
		d := a - alphaPrev[i]
		ip += (yk[i] - a) * d
		yk[i] = a + beta*d
	}
	pass := fistaPass[T]{Restart: ip}
	if norms {
		pass.Norm, pass.Step = linalg.Norm2(alpha), linalg.DistNorm2(alpha, alphaPrev)
	}
	return pass
}

// checkStepNorms runs the fused pass and the plain-loop reference on
// one input and checks that their stopping values are linalg.Norm2(α_k)
// and linalg.DistNorm2(α_k, α_{k−1}) bit for bit, and that the two
// agree.
func checkStepNorms[T linalg.Float](t *testing.T, n int, thr T) {
	t.Helper()
	alphaPrev, yk, half := stepInputs(n, uint64(n)+7, thr)
	yk2, half2 := append([]T(nil), yk...), append([]T(nil), half...)
	alpha, alpha2 := make([]T, n), make([]T, n)
	const step, beta = 0.75, 0.6
	p := fistaStepFused(alpha, alphaPrev, yk, half, step, thr, beta, true)
	if got, want := p.Norm, linalg.Norm2(alpha); bits(got) != bits(want) {
		t.Errorf("%T n=%d thr=%v: fused ‖α‖ = %v, Norm2 = %v", thr, n, thr, got, want)
	}
	if got, want := p.Step, linalg.DistNorm2(alpha, alphaPrev); bits(got) != bits(want) {
		t.Errorf("%T n=%d thr=%v: fused ‖α−α_prev‖ = %v, DistNorm2 = %v", thr, n, thr, got, want)
	}
	q := fistaStep(alpha2, alphaPrev, yk2, half2, step, thr, beta, true)
	if bits(q.Norm) != bits(p.Norm) || bits(q.Step) != bits(p.Step) || q.Restart != p.Restart {
		t.Errorf("%T n=%d thr=%v: scalar pass %+v, fused %+v", thr, n, thr, q, p)
	}
	for i := range alpha {
		if alpha[i] != alpha2[i] || yk[i] != yk2[i] {
			t.Fatalf("%T n=%d thr=%v i=%d: scalar (α %v, y %v), fused (α %v, y %v)", thr, n, thr, i, alpha2[i], yk2[i], alpha[i], yk[i])
		}
	}
}

// TestFISTAStepNormsMatchKernels pins the fused pass's stopping values
// to the kernels the stopping rule is defined by, over empty, short and
// window-sized lengths. The large threshold shrinks α_k and α_{k−1} to ±0
// everywhere, so both norms take the zero-max path.
func TestFISTAStepNormsMatchKernels(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 64, 511, 512} {
		for _, thr := range []float64{0.5, 100} {
			checkStepNorms(t, n, thr)
			checkStepNorms(t, n, float32(thr))
		}
	}
}

// edge32 draws a float32 on one of the boundaries the AVX2 pass must
// treat as the Go loop does: signed zeros, subnormals, infinities, NaNs
// of either sign with random payloads (quiet and signalling), and
// values far apart in magnitude.
func edge32(g *rng.Xoshiro) float32 {
	sign := uint32(g.Uint64()&1) << 31
	switch g.Intn(6) {
	case 0:
		return math.Float32frombits(sign)
	case 1:
		return math.Float32frombits(sign | uint32(1+g.Intn(1<<23-1)))
	case 2:
		return math.Float32frombits(sign | 0x7f800000)
	case 3:
		return math.Float32frombits(sign | 0x7f800000 | uint32(1+g.Intn(1<<23-1)))
	case 4:
		return math.Float32frombits(sign | 0x7fc00000 | uint32(g.Intn(1<<22)))
	default:
		return float32(math.Ldexp(2*g.Float64()-1, g.Intn(200)-100))
	}
}

// edgeStepInputs draws a FISTA pass input of length n. With edges set,
// each lane is either an ordinary draw, an edge32 value in y_k, h or
// α_{k−1}, or a step point on the threshold: h = ±0 and y_k = ±thr or
// one ulp either side. Without, every lane is an ordinary draw, so the
// sums stay finite and only their rounding can differ.
func edgeStepInputs(n int, g *rng.Xoshiro, thr float32, edges bool) (alphaPrev, yk, half []float32) {
	alphaPrev, yk, half = make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range yk {
		yk[i] = float32(g.NormFloat64())
		half[i] = float32(0.1 * g.NormFloat64())
		alphaPrev[i] = linalg.ShrinkBranchless(float32(g.NormFloat64()), thr)
		if !edges {
			continue
		}
		switch g.Intn(6) {
		case 0:
			yk[i] = edge32(g)
		case 1:
			half[i] = edge32(g)
		case 2:
			alphaPrev[i] = edge32(g)
		case 3:
			v := thr
			switch g.Intn(3) {
			case 0:
				v = math.Nextafter32(thr, 0)
			case 1:
				v = math.Nextafter32(thr, float32(math.Inf(1)))
			}
			if g.Intn(2) == 0 {
				v = -v
			}
			yk[i], half[i] = v, float32(math.Copysign(0, float64(g.Intn(2)-1)))
		}
	}
	return alphaPrev, yk, half
}

// guard fills the 8 entries past the end of every vector the AVX2 pass
// writes; guarded and guardIntact place and check it.
const guard = -12345

// guarded returns a copy of x in a backing array with 8 guard entries
// past its length.
func guarded(x []float32) []float32 {
	buf := make([]float32, len(x)+8)
	copy(buf, x)
	for i := len(x); i < len(buf); i++ {
		buf[i] = guard
	}
	return buf[:len(x)]
}

func guardIntact(x []float32) bool {
	for _, v := range x[len(x):cap(x)] {
		if v != guard {
			return false
		}
	}
	return true
}

// sameBits reports whether the kernel's x and the Go loop's want have
// the same encoding. Under -race the instrumented Go loop compiles some
// commutative adds with their operands swapped, which changes which
// payload a NaN + NaN keeps, so there two NaNs count as the same.
func sameBits(x, want float32) bool {
	if raceEnabled && x != x && want != want {
		return true
	}
	return bits(x) == bits(want)
}

// TestFISTAStepAVX2BitIdentical runs the AVX2 pass and the Go loop on
// the same edge-heavy inputs and requires every output bit to agree:
// α_k, y_{k+1}, the restart product and both norms, NaN payloads and
// signed zeros included. The lengths cover passes shorter than one
// 8-lane block, every partial-block length after a full block, and
// partial blocks around the window size; the thresholds include 0,
// where the sign of a zero step decides the sign of α_k, and a
// subnormal. A quarter of the trials draw no edge values, so a changed
// rounding order shows in finite sums.
func TestFISTAStepAVX2BitIdentical(t *testing.T) {
	if !linalg.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 63, 64, 65, 511, 512, 513)
	thresholds := []float32{0, 0.5, 1e-40, 3}
	g := rng.New(19)
	for _, n := range lengths {
		for _, norms := range []bool{true, false} {
			for trial := range 400 {
				thr := thresholds[trial%len(thresholds)]
				if trial >= 2*len(thresholds) {
					thr = float32(g.Float64())
				}
				step, beta := float32(0.75), float32(0)
				if trial%3 != 0 {
					step, beta = float32(0.1+g.Float64()), float32(g.Float64())
				}
				alphaPrev, yk, half := edgeStepInputs(n, g, thr, trial%4 != 0)
				alpha, yk2, half2 := guarded(make([]float32, n)), guarded(yk), guarded(half)
				got := fistaStepAVX2(alpha, alphaPrev, yk2, half2, step, thr, beta, norms)
				alphaRef := make([]float32, n)
				want := fistaStepLoop(alphaRef, alphaPrev, yk, half, step, thr, beta, norms)
				if !sameBits(got.Restart, want.Restart) || !sameBits(got.Norm, want.Norm) || !sameBits(got.Step, want.Step) {
					t.Fatalf("n=%d norms=%v trial %d: AVX2 pass %+v (%#x %#x %#x), Go loop %+v (%#x %#x %#x)", n, norms, trial,
						got, bits(got.Restart), bits(got.Norm), bits(got.Step), want, bits(want.Restart), bits(want.Norm), bits(want.Step))
				}
				for i := range alpha {
					if !sameBits(alpha[i], alphaRef[i]) || !sameBits(yk2[i], yk[i]) {
						t.Fatalf("n=%d norms=%v trial %d i=%d: AVX2 pass (α %#x, y %#x), Go loop (α %#x, y %#x)", n, norms, trial, i,
							bits(alpha[i]), bits(yk2[i]), bits(alphaRef[i]), bits(yk[i]))
					}
				}
				if !guardIntact(alpha) || !guardIntact(yk2) || !guardIntact(half2) {
					t.Fatalf("n=%d: the AVX2 pass wrote past the end of its vectors", n)
				}
			}
		}
	}
}

// namedF32 is a float type with float32 underneath; only float32 itself
// dispatches to the kernel.
type namedF32 float32

// kernelRan runs fistaStepFused on a 64-coefficient pass of element
// type T and reports whether the AVX2 path ran, which is the only path
// that leaves its restart products in half.
func kernelRan[T linalg.Float](t *testing.T) bool {
	t.Helper()
	alphaPrev, yk, half := stepInputs[T](64, 5, 0.5)
	before := append([]T(nil), half...)
	fistaStepFused(make([]T, 64), alphaPrev, yk, half, 0.75, 0.5, 0.6, true)
	for i := range half {
		if half[i] != before[i] {
			return true
		}
	}
	return false
}

// TestFISTAStepDispatch requires the AVX2 pass to run exactly when the
// element type is float32 and the CPU has AVX2.
func TestFISTAStepDispatch(t *testing.T) {
	if got, want := kernelRan[float32](t), linalg.HasAVX2(); got != want {
		t.Errorf("float32: kernel ran = %v, want %v (HasAVX2 %v)", got, want, linalg.HasAVX2())
	}
	if kernelRan[float64](t) {
		t.Error("float64: kernel ran, want the Go loop")
	}
	if kernelRan[namedF32](t) {
		t.Error("named float32 type: kernel ran, want the Go loop")
	}
}

// benchStep times one FISTA update pass over 512 coefficients, the
// decoder's window, with norms on. Every pass starts from the same y_k
// and half-gradient, copied in first (both copies are inside the
// timing), so the shrink meets the same mix of signs on every run.
func benchStep[T linalg.Float](b *testing.B, pass func(alpha, alphaPrev, yk, half []T, step, thr, beta T, norms bool) fistaPass[T]) {
	const n = 512
	alphaPrev, yk0, half0 := stepInputs[T](n, 11, 0.5)
	alpha, yk, half := make([]T, n), make([]T, n), make([]T, n)
	b.ResetTimer()
	for range b.N {
		copy(yk, yk0)
		copy(half, half0)
		pass(alpha, alphaPrev, yk, half, 0.75, 0.5, 0.6, true)
	}
}

// BenchmarkFISTAStepFused512 times fistaStepFused as the solver calls
// it at float32 (the AVX2 kernel where the CPU has AVX2), the float32 Go
// loop it replaces there, and float64, which always runs the Go loop.
// It is the microbenchmark of the solver.self_us_per_iter stage.
func BenchmarkFISTAStepFused512(b *testing.B) {
	b.Run("float32", func(b *testing.B) { benchStep(b, fistaStepFused[float32]) })
	b.Run("float32-loop", func(b *testing.B) { benchStep(b, fistaStepLoop[float32]) })
	b.Run("float64", func(b *testing.B) { benchStep(b, fistaStepFused[float64]) })
}
