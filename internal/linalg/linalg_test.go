package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"csecg/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotBasic(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Dot([]float32{0.5, 0.5}, []float32{2, 2}); got != 2 {
		t.Errorf("Dot float32 = %v, want 2", got)
	}
}

// TestDot4MatchesDot checks the 4-accumulator inner product against
// the ordered one on seeded fractional draws of every tail length,
// signed zeros included. Reassociation moves the sum by at most a few
// ulps of Σ|aᵢbᵢ|.
func TestDot4MatchesDot(t *testing.T) {
	g := rng.New(4)
	for trial := range 400 {
		n := trial % 67
		a, b := make([]float64, n), make([]float64, n)
		var scale float64
		for i := range a {
			a[i], b[i] = 200*g.Float64()-100, 7.3*g.NormFloat64()
			if g.Intn(8) == 0 {
				a[i] = math.Copysign(0, float64(g.Intn(2)-1))
			}
			scale += math.Abs(a[i] * b[i])
		}
		if got, want := Dot4(a, b), Dot(a, b); !almostEq(got, want, 1e-13*scale) {
			t.Fatalf("n=%d: Dot4 = %v, Dot = %v", n, got, want)
		}
	}
}

func TestDot4TailLengths(t *testing.T) {
	// Exercise every leftover count A ∈ {0,1,2,3} of Fig. 3.
	for n := 0; n <= 9; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(2 * (i + 1))
		}
		if got, want := Dot4(a, b), Dot(a, b); got != want {
			t.Errorf("n=%d: Dot4 = %v, want %v", n, got, want)
		}
	}
}

func TestAxpyVariants(t *testing.T) {
	for n := 0; n <= 9; n++ {
		x := make([]float64, n)
		d1 := make([]float64, n)
		d2 := make([]float64, n)
		for i := range x {
			x[i] = float64(i) - 2.5
			d1[i] = float64(i) * 0.5
			d2[i] = d1[i]
		}
		Axpy(1.5, x, d1)
		Axpy4(1.5, x, d2)
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Errorf("n=%d i=%d: Axpy=%v Axpy4=%v", n, i, d1[i], d2[i])
			}
		}
	}
}

func TestSoftThresholdCases(t *testing.T) {
	u := []float64{3, -3, 0.5, -0.5, 0, 1.0001, -1.0001}
	want := []float64{2, -2, 0, 0, 0, 0.0001, -0.0001}
	dst := make([]float64, len(u))
	SoftThreshold(dst, u, 1)
	for i := range want {
		if !almostEq(dst[i], want[i], 1e-12) {
			t.Errorf("SoftThreshold[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// shrinkMatches reports whether ShrinkBranchless equals SoftThreshold
// in every lane of u.
func shrinkMatches[T Float](u []T, t T) bool {
	want := make([]T, len(u))
	SoftThreshold(want, u, t)
	for i, v := range u {
		if ShrinkBranchless(v, t) != want[i] {
			return false
		}
	}
	return true
}

// TestShrinkBranchlessMatchesSoftThreshold checks the if-converted
// shrinkage lane by lane against the branchy SoftThreshold at both
// precisions. The values are equal exactly; only the sign of a zero may
// differ, which == ignores.
func TestShrinkBranchlessMatchesSoftThreshold(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		g := rng.New(seed)
		t0 := 5 * g.Float64()
		// The threshold, its neighbours and signed zeros sit on the
		// branches' boundaries.
		u := []float64{t0, -t0, math.Nextafter(t0, 0), math.Nextafter(t0, 10), 0, math.Copysign(0, -1)}
		for range int(n) {
			u = append(u, 10*(2*g.Float64()-1))
		}
		u32 := make([]float32, len(u))
		for i, v := range u {
			u32[i] = float32(v)
		}
		return shrinkMatches(u, t0) && shrinkMatches(u32, float32(t0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// shrinkExact reports whether ShrinkBranchless(v, t) is the soft
// threshold of v exactly: 0 where |v| ≤ t, and otherwise v ∓ t, which
// keeps v's sign and is no larger than |v|.
func shrinkExact[T Float](v, t T) bool {
	got := ShrinkBranchless(v, t)
	switch {
	case v > t:
		return got == v-t && got > 0 && got <= v
	case v < -t:
		return got == v+t && got < 0 && got >= v
	}
	return got == 0
}

// TestSoftThresholdShrinksTowardZero checks the shrinkage against the
// exact soft threshold at both precisions on seeded draws: fractional
// values, v = ±t and the float neighbours on either side, ±0, and t = 0
// as well as fractional and integer thresholds.
func TestSoftThresholdShrinksTowardZero(t *testing.T) {
	g := rng.New(130)
	for trial := range 300 {
		var t0 float64
		switch trial % 3 {
		case 1:
			t0 = 3 * g.Float64()
		case 2:
			t0 = float64(g.Intn(4))
		}
		vs := []float64{0, math.Copysign(0, -1)}
		for _, b := range []float64{t0, -t0} {
			vs = append(vs, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
		}
		for range 16 {
			vs = append(vs, 20*g.Float64()-10)
		}
		t32 := float32(t0)
		for _, v := range vs {
			if !shrinkExact(v, t0) {
				t.Fatalf("float64 t=%v: ShrinkBranchless(%v) = %v", t0, v, ShrinkBranchless(v, t0))
			}
			v32 := float32(v)
			for _, w := range []float32{v32, math.Nextafter32(v32, 100), math.Nextafter32(v32, -100)} {
				if !shrinkExact(w, t32) {
					t.Fatalf("float32 t=%v: ShrinkBranchless(%v) = %v", t32, w, ShrinkBranchless(w, t32))
				}
			}
		}
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm1(x); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := NormInf(x); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
	if got := Norm2([]float64{}); got != 0 {
		t.Errorf("Norm2(empty) = %v, want 0", got)
	}
}

func TestNorm2NoOverflowFloat32(t *testing.T) {
	x := []float32{3e19, 4e19}
	if got := Norm2(x); math.IsInf(float64(got), 0) {
		t.Error("Norm2 float32 overflowed; scaling missing")
	} else if !almostEq(float64(got), 5e19, 1e15) {
		t.Errorf("Norm2 = %v, want 5e19", got)
	}
}

func TestSubCombine(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	dst := make([]float64, 5)
	Sub(dst, a, b)
	want := []float64{-4, -2, 0, 2, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("Sub[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestDenseMatVec(t *testing.T) {
	m := NewDense[float64](2, 3)
	// [1 2 3; 4 5 6]
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i*3+j+1))
		}
	}
	dst := make([]float64, 2)
	m.MatVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MatVec = %v, want [6 15]", dst)
	}
	dt := make([]float64, 3)
	m.MatTVec(dt, []float64{1, 1})
	if dt[0] != 5 || dt[1] != 7 || dt[2] != 9 {
		t.Errorf("MatTVec = %v, want [5 7 9]", dt)
	}
}

func TestDensePanics(t *testing.T) {
	m := NewDense[float64](2, 3)
	for _, fn := range []func(){
		func() { m.MatVec(make([]float64, 2), make([]float64, 2)) },
		func() { m.MatTVec(make([]float64, 3), make([]float64, 3)) },
		func() { NewDense[float64](0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on dimension error")
				}
			}()
			fn()
		}()
	}
}

func TestPowerIterKnownMatrix(t *testing.T) {
	// diag(3, 1): top singular value 3, so ‖A‖₂² estimate... PowerIterOpNorm
	// returns λ_max(AᵀA) = 9.
	m := NewDense[float64](2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	got := PowerIterOpNorm(OpFromDense(m), 50)
	if !almostEq(got, 9, 1e-6) {
		t.Errorf("PowerIterOpNorm = %v, want 9", got)
	}
}

// gramDiagMax returns max_j (MᵀM)_{jj} = max column squared norm, a
// cheap lower bound on the operator norm.
func gramDiagMax(m *Dense[float64]) float64 {
	var best float64
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			v := m.Row(i)[j]
			s += v * v
		}
		best = max(best, s)
	}
	return best
}

func TestPowerIterAtLeastGramDiag(t *testing.T) {
	m := NewDense[float64](20, 30)
	state := uint64(99)
	for i := 0; i < 20; i++ {
		for j := 0; j < 30; j++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			m.Set(i, j, float64(int64(state%2001)-1000)/1000)
		}
	}
	lam := PowerIterOpNorm(OpFromDense(m), 100)
	if g := gramDiagMax(m); lam < g-1e-9 {
		t.Errorf("operator norm %v below Gram diagonal bound %v", lam, g)
	}
}

func TestAdjointMismatchDetectsBug(t *testing.T) {
	m := NewDense[float64](4, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, float64(i+j)+0.5)
		}
	}
	good := OpFromDense(m)
	if mm := AdjointMismatch(good, 4); mm > 1e-10 {
		t.Errorf("correct adjoint reported mismatch %v", mm)
	}
	// Break the adjoint: scale it by 2.
	bad := good
	bad.ApplyT = func(dst, y []T64) {
		m.MatTVec(dst, y)
		Scale(2, dst)
	}
	if mm := AdjointMismatch(bad, 4); mm < 0.1 {
		t.Errorf("broken adjoint reported mismatch %v, want large", mm)
	}
}

// T64 aliases float64 for the closure above.
type T64 = float64

func TestCompose(t *testing.T) {
	// outer = [[2,0],[0,3]], inner = [[1,1],[1,-1]] (2x2 each)
	outer := NewDense[float64](2, 2)
	outer.Set(0, 0, 2)
	outer.Set(1, 1, 3)
	inner := NewDense[float64](2, 2)
	inner.Set(0, 0, 1)
	inner.Set(0, 1, 1)
	inner.Set(1, 0, 1)
	inner.Set(1, 1, -1)
	comp := Compose(OpFromDense(outer), OpFromDense(inner))
	dst := make([]float64, 2)
	comp.Apply(dst, []float64{1, 2})
	// inner*[1,2] = [3,-1]; outer*[3,-1] = [6,-3]
	if dst[0] != 6 || dst[1] != -3 {
		t.Errorf("Compose Apply = %v, want [6 -3]", dst)
	}
	if mm := AdjointMismatch(comp, 3); mm > 1e-10 {
		t.Errorf("Compose adjoint mismatch %v", mm)
	}
}

func TestFill(t *testing.T) {
	d := make([]float64, 4)
	Fill(d, 7)
	for _, v := range d {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
}

// Benchmarks backing the Figs. 3-5 vectorization study: scalar vs 4-wide
// unrolled kernels at the solver's working sizes (N=512 coefficients,
// M=256 measurements).

func benchVecs(n int) ([]float32, []float32, []float32) {
	a := make([]float32, n)
	b := make([]float32, n)
	c := make([]float32, n)
	for i := range a {
		a[i] = float32(i%17) - 8
		b[i] = float32(i%23) - 11
	}
	return a, b, c
}

func BenchmarkKernelScalarDot512(b *testing.B) {
	x, y, _ := benchVecs(512)
	var s float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}

func BenchmarkKernelUnrolledDot512(b *testing.B) {
	x, y, _ := benchVecs(512)
	var s float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += Dot4(x, y)
	}
	_ = s
}

func BenchmarkKernelScalarSoftThresh512(b *testing.B) {
	x, _, dst := benchVecs(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftThreshold(dst, x, 2)
	}
}

// BenchmarkKernelBranchlessSoftThresh512 is the if-converted
// counterpart of BenchmarkKernelScalarSoftThresh512 (Fig. 4).
func BenchmarkKernelBranchlessSoftThresh512(b *testing.B) {
	x, _, dst := benchVecs(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			dst[j] = ShrinkBranchless(v, 2)
		}
	}
}

func BenchmarkKernelScalarAxpy512(b *testing.B) {
	x, _, dst := benchVecs(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1.001, x, dst)
	}
}

func BenchmarkKernelUnrolledAxpy512(b *testing.B) {
	x, _, dst := benchVecs(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy4(1.001, x, dst)
	}
}

func BenchmarkDenseMatVec256x512(b *testing.B) {
	m := NewDense[float32](256, 512)
	for i := 0; i < 256; i++ {
		for j := 0; j < 512; j++ {
			m.Set(i, j, float32((i*j)%7)-3)
		}
	}
	x := make([]float32, 512)
	dst := make([]float32, 256)
	for i := range x {
		x[i] = float32(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

// TestDistNorm2MatchesNorm2OfSub checks the allocation-free distance
// against the two-step Norm2(Sub(a, b)) it replaces in the solver's
// stopping rule, bit for bit, over lengths that hit the 4-wide tail.
func TestDistNorm2MatchesNorm2OfSub(t *testing.T) {
	state := uint64(0x9e37_79b9_7f4a_7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(int64(state%2000001)-1000000) / 7919
	}
	for _, n := range []int{0, 1, 3, 4, 7, 64, 511, 512} {
		a64, b64 := make([]float64, n), make([]float64, n)
		a32, b32 := make([]float32, n), make([]float32, n)
		for i := range a64 {
			a64[i], b64[i] = next(), next()
			if i%5 == 0 {
				b64[i] = a64[i] // exact zero differences
			}
			a32[i], b32[i] = float32(a64[i]), float32(b64[i])
		}
		d64, d32 := make([]float64, n), make([]float32, n)
		Sub(d64, a64, b64)
		Sub(d32, a32, b32)
		if got, want := DistNorm2(a64, b64), Norm2(d64); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("float64 n=%d: DistNorm2 = %v, Norm2(Sub) = %v", n, got, want)
		}
		if got, want := DistNorm2(a32, b32), Norm2(d32); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("float32 n=%d: DistNorm2 = %v, Norm2(Sub) = %v", n, got, want)
		}
	}
}
