package solver

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"csecg/internal/ecg"
	"csecg/internal/linalg"
	"csecg/internal/rng"
	"csecg/internal/sensing"
	"csecg/internal/wavelet"
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
// maths in separate loops with the branchy soft threshold, and the
// stopping rule on linalg.Norm2 and linalg.DistNorm2. The step point
// u = y_k − ∇f/L lands in half, so y_k survives the shrinkage for the
// restart product and is overwritten by y_{k+1} only afterwards.
func fistaStep[T linalg.Float](alpha, alphaPrev, yk, half []T, step, thr, beta T, tol float64) fistaPass {
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
	return fistaPass{Restart: ip > 0, Stop: tol >= 0 && stopRatio(alpha, alphaPrev) < tol}
}

// stopRatio is the quotient the stopping rule compares with tol,
// ‖α_k − α_{k−1}‖₂ / max(1, ‖α_k‖₂), on the norms the rule is defined
// by, as stopped computes it.
func stopRatio[T linalg.Float](alpha, alphaPrev []T) float64 {
	den := float64(linalg.Norm2(alpha))
	if den < 1 {
		den = 1
	}
	return float64(linalg.DistNorm2(alpha, alphaPrev)) / den
}

// ulpsFrom returns r moved k float64 ulps up (k > 0) or down.
func ulpsFrom(r float64, k int) float64 {
	for ; k > 0; k-- {
		r = math.Nextafter(r, math.Inf(1))
	}
	for ; k < 0; k++ {
		r = math.Nextafter(r, math.Inf(-1))
	}
	return r
}

// nearRatio is the tolerances at and around the stopping ratio r that a
// decision test tries: exactly r (the rule does not stop) and one and
// two ulps either side. At every one of them but the outer two the
// interval the AVX2 pass bounds its decision with contains tol, so it
// must take the ordered fallback.
func nearRatio(r float64) []float64 {
	return []float64{ulpsFrom(r, -2), ulpsFrom(r, -1), r, ulpsFrom(r, 1), ulpsFrom(r, 2)}
}

// checkStepDecisions runs the fused pass and the plain-loop reference on
// one input at tolerances around the reference stopping ratio and
// requires the reference's decisions: the stopping rule decided on
// linalg.Norm2 and linalg.DistNorm2, whatever path computed the norms.
// On the AVX2 path, tol within one ulp of the ratio must take the
// ordered fallback unless the step is exactly zero.
func checkStepDecisions[T linalg.Float](t *testing.T, n int, thr T) {
	t.Helper()
	alphaPrev, yk0, half0 := stepInputs(n, uint64(n)+7, thr)
	const step, beta = 0.75, 0.6
	alphaRef := make([]T, n)
	fistaStep(alphaRef, alphaPrev, append([]T(nil), yk0...), append([]T(nil), half0...), step, thr, beta, -1)
	r := stopRatio(alphaRef, alphaPrev)
	_, f32 := any(thr).(float32)
	kernel := f32 && linalg.HasAVX2()
	for i, tol := range append(nearRatio(r), -1, 0, 1e-4, 0.5) {
		yk, half, alpha := append([]T(nil), yk0...), append([]T(nil), half0...), make([]T, n)
		yk2, half2, alpha2 := append([]T(nil), yk0...), append([]T(nil), half0...), make([]T, n)
		p := fistaStepFused(alpha, alphaPrev, yk, half, step, thr, beta, tol)
		q := fistaStep(alpha2, alphaPrev, yk2, half2, step, thr, beta, tol)
		if p.Restart != q.Restart || p.Stop != q.Stop {
			t.Errorf("%T n=%d thr=%v tol=%v (ratio %v): fused pass %+v, reference %+v", thr, n, thr, tol, r, p, q)
		}
		if kernel && i >= 1 && i <= 3 && linalg.DistNorm2(alphaRef, alphaPrev) != 0 && !p.StopOrdered {
			t.Errorf("%T n=%d thr=%v tol=%v: stop decided from lane sums at one ulp from the ratio %v", thr, n, thr, tol, r)
		}
		for j := range alpha {
			if alpha[j] != alpha2[j] || yk[j] != yk2[j] {
				t.Fatalf("%T n=%d thr=%v j=%d: reference (α %v, y %v), fused (α %v, y %v)", thr, n, thr, j, alpha2[j], yk2[j], alpha[j], yk[j])
			}
		}
	}
}

// TestFISTAStepNormsMatchKernels pins the fused pass's decisions to the
// kernels the stopping rule is defined by, over empty, short and
// window-sized lengths and the solver's tolerances. tol at the exact
// stopping ratio and one or two ulps either side tells apart any
// change of either norm's last bit that moves the ratio. The large
// threshold shrinks α_k and α_{k−1} to ±0 everywhere, so both norms
// take the zero-max path.
func TestFISTAStepNormsMatchKernels(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 64, 511, 512} {
		for _, thr := range []float64{0.5, 100} {
			checkStepDecisions(t, n, thr)
			checkStepDecisions(t, n, float32(thr))
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

// pickTol returns the stopping tolerance of a trial: mostly the exact
// stopping ratio r or up to two ulps from it, else disabled, zero, the
// decoder's tolerance or a random one.
func pickTol(g *rng.Xoshiro, r float64) float64 {
	switch k := g.Intn(9); {
	case k < 5:
		return ulpsFrom(r, k-2)
	case k == 5:
		return -1
	case k == 6:
		return 0
	case k == 7:
		return 3e-5
	}
	return g.Float64()
}

// checkAVX2Pass runs the AVX2 pass and the Go loop on one input at tol
// and requires the same α_k and y_{k+1} bits and the same decisions.
// It returns the AVX2 pass.
func checkAVX2Pass(t *testing.T, what string, alphaPrev, yk, half []float32, step, thr, beta float32, tol float64) fistaPass {
	t.Helper()
	n := len(yk)
	alpha, yk2, half2 := guarded(make([]float32, n)), guarded(yk), guarded(half)
	got := fistaStepAVX2(alpha, alphaPrev, yk2, half2, step, thr, beta, tol)
	alphaRef, ykRef := make([]float32, n), append([]float32(nil), yk...)
	want := fistaStepLoop(alphaRef, alphaPrev, ykRef, append([]float32(nil), half...), step, thr, beta, tol)
	if got.Restart != want.Restart || got.Stop != want.Stop {
		t.Fatalf("%s tol=%v: AVX2 pass %+v, Go loop %+v", what, tol, got, want)
	}
	for i := range alpha {
		if !sameBits(alpha[i], alphaRef[i]) || !sameBits(yk2[i], ykRef[i]) {
			t.Fatalf("%s i=%d: AVX2 pass (α %#x, y %#x), Go loop (α %#x, y %#x)", what, i,
				bits(alpha[i]), bits(yk2[i]), bits(alphaRef[i]), bits(ykRef[i]))
		}
	}
	if !guardIntact(alpha) || !guardIntact(yk2) || !guardIntact(half2) {
		t.Fatalf("%s: the AVX2 pass wrote past the end of its vectors", what)
	}
	return got
}

// TestFISTAStepAVX2BitIdentical runs the AVX2 pass and the Go loop on
// the same edge-heavy inputs and requires every output bit of α_k and
// y_{k+1} to agree, NaN payloads and signed zeros included, and the
// same restart and stopping decisions. The lengths cover passes shorter
// than one 8-lane block, every partial-block length after a full
// block, partial blocks around the window size, and passes longer than
// laneSumMaxLen, which always sum in order; the thresholds include 0,
// where the sign of a zero step decides the sign of α_k, and a
// subnormal. Most trials set tol at or within two ulps of the loop's
// stopping ratio, where the lane sums cannot decide and the ordered
// fallback must agree with the loop bit for bit; at the ratio and one
// ulp either side the pass must take it. A quarter of the trials draw
// no edge values, so a changed rounding order shows in finite sums.
func TestFISTAStepAVX2BitIdentical(t *testing.T) {
	if !linalg.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 63, 64, 65, 511, 512, 513, laneSumMaxLen+1)
	thresholds := []float32{0, 0.5, 1e-40, 3}
	g := rng.New(19)
	for _, n := range lengths {
		trials := 800
		if n > 1000 {
			trials = 40
		}
		for trial := range trials {
			thr := thresholds[trial%len(thresholds)]
			if trial >= 2*len(thresholds) {
				thr = float32(g.Float64())
			}
			step, beta := float32(0.75), float32(0)
			if trial%3 != 0 {
				step, beta = float32(0.1+g.Float64()), float32(g.Float64())
			}
			alphaPrev, yk, half := edgeStepInputs(n, g, thr, trial%4 != 0)
			alphaRef := make([]float32, n)
			fistaStepLoop(alphaRef, alphaPrev, append([]float32(nil), yk...), append([]float32(nil), half...), step, thr, beta, -1)
			r := stopRatio(alphaRef, alphaPrev)
			tol := pickTol(g, r)
			got := checkAVX2Pass(t, fmt.Sprintf("n=%d trial %d", n, trial), alphaPrev, yk, half, step, thr, beta, tol)
			nearest := tol == ulpsFrom(r, -1) || tol == r || tol == ulpsFrom(r, 1)
			if nearest && tol >= 0 && linalg.DistNorm2(alphaRef, alphaPrev) != 0 && !got.StopOrdered {
				t.Fatalf("n=%d trial %d: stop decided from lane sums at tol %v, one ulp from the ratio %v", n, trial, tol, r)
			}
		}
	}
}

// cancelInputs draws a pass input whose restart products cancel. With
// y_k = 1/2, h = 0 and thr = 1 every α_k is −0, so the restart product
// of coefficient i is exactly −α_{k−1}[i]/2, and α_{k−1} sets it. The
// first n−1 products span thirteen binades of either sign; the last is
// the negated index-order sum of the others, moved by −2…2 ulps. So
// the ordered restart sum is zero or a few ulps of either sign, far
// inside the lane sums' error bound, and any other summation order
// rounds to other values.
func cancelInputs(n int, g *rng.Xoshiro) (alphaPrev, yk, half []float32) {
	alphaPrev, yk, half = make([]float32, n), make([]float32, n), make([]float32, n)
	var sum float32
	for i := range yk {
		yk[i] = 0.5
		p := float32(math.Ldexp(1+g.Float64(), g.Intn(13)-6))
		if g.Intn(2) == 0 {
			p = -p
		}
		if i == n-1 {
			p = -sum
			for k := g.Intn(5) - 2; k != 0; k -= sign(k) {
				p = math.Nextafter32(p, float32(k))
			}
		}
		sum += p
		alphaPrev[i] = -2 * p
	}
	return alphaPrev, yk, half
}

func sign(k int) int {
	if k < 0 {
		return -1
	}
	return 1
}

// TestFISTAStepRestartCancellation runs the AVX2 pass on inputs whose
// restart sum cancels to within a few ulps of zero (cancelInputs). The
// lane sums cannot tell its sign there, so the pass must take the
// ordered fallback and decide exactly as the Go loop's index-order sum
// does, which a pairwise or lane-order fallback sum does not.
func TestFISTAStepRestartCancellation(t *testing.T) {
	if !linalg.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	g := rng.New(23)
	restarts := 0
	for trial := range 600 {
		n := 2 + g.Intn(600)
		alphaPrev, yk, half := cancelInputs(n, g)
		got := checkAVX2Pass(t, fmt.Sprintf("cancel n=%d trial %d", n, trial), alphaPrev, yk, half, 0.75, 1, 0.5, -1)
		if !got.RestartOrdered {
			t.Fatalf("cancel n=%d trial %d: restart decided from lane sums on a cancelling sum", n, trial)
		}
		if got.Restart {
			restarts++
		}
	}
	if restarts == 0 || restarts == 600 {
		t.Errorf("the cancelling sums restarted %d of 600 times; the corpus must hit both signs", restarts)
	}
}

// TestFISTAStepNormsOffSkipsNormSums checks a pass with stopping
// disabled (tol < 0): it never stops, the kernel forms no lane sums of
// squares, and no pass runs the ordered norm sums. On ordinary inputs,
// whose restart sums are far from zero, no pass takes the ordered
// fallback at all; on cancelling ones only the restart sum runs in
// order.
func TestFISTAStepNormsOffSkipsNormSums(t *testing.T) {
	if !linalg.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	g := rng.New(29)
	for trial := range 400 {
		n := 1 + g.Intn(600)
		alphaPrev, yk, half := edgeStepInputs(n, g, 0.5, false)
		a := make([]float32, n)
		_, _, _, _, sa, sd := fistaUpdate8(a, alphaPrev, append([]float32(nil), yk...), append([]float32(nil), half...), 0.75, 0.5, 0.6, false)
		if bits(sa) != 0 || bits(sd) != 0 {
			t.Fatalf("n=%d trial %d: norms off, but the kernel formed lane sums of squares %v and %v", n, trial, sa, sd)
		}
		p := checkAVX2Pass(t, fmt.Sprintf("norms off n=%d", n), alphaPrev, yk, half, 0.75, 0.5, 0.6, -1)
		if p.Stop || p.StopOrdered || p.RestartOrdered {
			t.Fatalf("n=%d trial %d: norms off, pass %+v", n, trial, p)
		}
		alphaPrev, yk, half = cancelInputs(n+1, g)
		if p := checkAVX2Pass(t, fmt.Sprintf("norms off cancel n=%d", n+1), alphaPrev, yk, half, 0.75, 1, 0.6, -1); p.Stop || p.StopOrdered {
			t.Fatalf("n=%d trial %d: norms off, cancelling pass %+v", n+1, trial, p)
		}
	}
}

// orderedPassesPin is the number of update passes of
// TestFISTAOrderedPassesRare's corpus that took the ordered fallback.
const orderedPassesPin = 4

// TestFISTAOrderedPassesRare decodes a fixed corpus, 16 consecutive
// 2 s windows of two records at CR 50 over the production operator,
// warm-started as the packet decoder does at its tolerance, and pins how
// many update passes took the ordered fallback: it must stay under 1 %
// of the passes, or the lane sums stop paying for themselves.
func TestFISTAOrderedPassesRare(t *testing.T) {
	if !linalg.HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	const n, m, windows = 512, 256, 8
	w, err := wavelet.New[float32](4, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	sense := sensing.Op[float32](phi)
	a := linalg.Compose(sense, w.SynthesisOp())
	lip := 2 * linalg.PowerIterOpNorm(a, 30)
	passes := 0
	ws := NewWorkspace(a)
	for _, id := range []string{"100", "208"} {
		rec, err := ecg.RecordByID(id)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := rec.Channel256(float64(windows*n)/256, 0)
		if err != nil {
			t.Fatal(err)
		}
		x, y := make([]float32, n), make([]float32, m)
		var x0 []float32
		for win := range windows {
			for i := range x {
				x[i] = float32(samples[win*n+i]) - 1024
			}
			sense.Apply(y, x)
			res, err := ws.FISTA(y, Options[float32]{MaxIter: 2000, Tol: 3e-5, Lipschitz: lip, X0: x0})
			if err != nil {
				t.Fatal(err)
			}
			passes += res.Iterations
			x0 = res.X
		}
	}
	t.Logf("%d of %d update passes took the ordered fallback", ws.ordered, passes)
	if ws.ordered != orderedPassesPin {
		t.Errorf("%d of %d update passes took the ordered fallback, pinned %d", ws.ordered, passes, orderedPassesPin)
	}
	if ws.ordered*100 >= passes {
		t.Errorf("%d of %d update passes took the ordered fallback, want under 1 %%", ws.ordered, passes)
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
	fistaStepFused(make([]T, 64), alphaPrev, yk, half, 0.75, 0.5, 0.6, 1e-4)
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
// decoder's window, at the decoder's tolerance, where the stopping rule
// forms its norms. Every pass starts from the same y_k
// and half-gradient, copied in first (both copies are inside the
// timing), so the shrink meets the same mix of signs on every run.
func benchStep[T linalg.Float](b *testing.B, pass func(alpha, alphaPrev, yk, half []T, step, thr, beta T, tol float64) fistaPass) {
	const n = 512
	alphaPrev, yk0, half0 := stepInputs[T](n, 11, 0.5)
	alpha, yk, half := make([]T, n), make([]T, n), make([]T, n)
	b.ResetTimer()
	for range b.N {
		copy(yk, yk0)
		copy(half, half0)
		pass(alpha, alphaPrev, yk, half, 0.75, 0.5, 0.6, 3e-5)
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

// FuzzFISTAStepDecisions runs the AVX2 pass and fistaStepLoop on fuzzed
// vectors, step, threshold, momentum weight and tolerance, and requires
// equal α_k and y_{k+1} bits and equal decisions. data holds the
// coefficients, 12 bytes each: the float32 bits of y_k, h and α_{k−1}.
// tolMode 0 takes tol from tolBits; 1…5 set it at the loop's exact
// stopping ratio moved by −2…2 ulps, where only the ordered fallback
// can decide.
func FuzzFISTAStepDecisions(f *testing.F) {
	g := rng.New(31)
	for _, n := range []int{0, 5, 8, 13, 64, 200} {
		alphaPrev, yk, half := edgeStepInputs(n, g, 0.5, n%2 == 1)
		data := make([]byte, 0, 12*n)
		for i := range yk {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(yk[i]))
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(half[i]))
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(alphaPrev[i]))
		}
		for mode := range uint8(6) {
			f.Add(data, math.Float32bits(0.75), math.Float32bits(0.5), math.Float32bits(0.6), mode, math.Float64bits(3e-5))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, stepBits, thrBits, betaBits uint32, tolMode uint8, tolBits uint64) {
		if !linalg.HasAVX2() {
			t.Skip("no AVX2 on this CPU")
		}
		n := len(data) / 12
		alphaPrev, yk, half := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range n {
			word := func(k int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(data[12*i+4*k:])) }
			yk[i], half[i], alphaPrev[i] = word(0), word(1), word(2)
		}
		step, thr, beta := math.Float32frombits(stepBits), math.Float32frombits(thrBits), math.Float32frombits(betaBits)
		tol := math.Float64frombits(tolBits)
		if mode := int(tolMode % 6); mode > 0 {
			alphaRef := make([]float32, n)
			fistaStepLoop(alphaRef, alphaPrev, append([]float32(nil), yk...), append([]float32(nil), half...), step, thr, beta, -1)
			tol = ulpsFrom(stopRatio(alphaRef, alphaPrev), mode-3)
		}
		checkAVX2Pass(t, "fuzz", alphaPrev, yk, half, step, thr, beta, tol)
	})
}
