package sensing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"csecg/internal/linalg"
)

func TestSparseBinaryShape(t *testing.T) {
	s, err := NewSparseBinary(256, 512, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, n := s.Dims()
	if m != 256 || n != 512 {
		t.Errorf("Dims = %d×%d", m, n)
	}
	if s.ColumnWeight() != 12 {
		t.Errorf("ColumnWeight = %d", s.ColumnWeight())
	}
	if math.Abs(s.Scale()-1/math.Sqrt(12)) > 1e-15 {
		t.Errorf("Scale = %v", s.Scale())
	}
}

func TestSparseBinaryInvalidShapes(t *testing.T) {
	cases := []struct{ m, n, d int }{
		{0, 512, 12}, {256, 0, 12}, {512, 256, 12}, {256, 512, 0}, {256, 512, 257},
	}
	for _, c := range cases {
		if _, err := NewSparseBinary(c.m, c.n, c.d, 1); err == nil {
			t.Errorf("NewSparseBinary(%d,%d,%d): expected error", c.m, c.n, c.d)
		}
	}
}

func TestSparseBinaryColumnInvariants(t *testing.T) {
	s, err := NewSparseBinary(256, 512, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 512; c++ {
		sup := s.Support(c)
		if len(sup) != 12 {
			t.Fatalf("column %d support size %d", c, len(sup))
		}
		for i, r := range sup {
			if r < 0 || int(r) >= 256 {
				t.Fatalf("column %d row %d out of range", c, r)
			}
			if i > 0 && sup[i-1] >= r {
				t.Fatalf("column %d support not strictly ascending: %v", c, sup)
			}
		}
	}
}

func TestSparseBinaryDeterministic(t *testing.T) {
	a, _ := NewSparseBinary(128, 256, 8, 7)
	b, _ := NewSparseBinary(128, 256, 8, 7)
	c, _ := NewSparseBinary(128, 256, 8, 8)
	same, diff := true, false
	for i := range a.support {
		if a.support[i] != b.support[i] {
			same = false
		}
		if a.support[i] != c.support[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different supports")
	}
	if !diff {
		t.Error("different seeds produced identical supports")
	}
}

func TestLCGVariantMatchesItself(t *testing.T) {
	a, err := NewSparseBinaryLCG(256, 512, 12, 0xABCD)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSparseBinaryLCG(256, 512, 12, 0xABCD)
	for i := range a.support {
		if a.support[i] != b.support[i] {
			t.Fatal("LCG supports differ for equal seeds")
		}
	}
}

func TestMeasureIntMatchesFloatOp(t *testing.T) {
	s, err := NewSparseBinary(128, 256, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	xi := make([]int16, 256)
	xf := make([]float64, 256)
	state := uint64(5)
	for i := range xi {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		xi[i] = int16(int64(state%2001) - 1000)
		xf[i] = float64(xi[i])
	}
	yi := make([]int32, 128)
	s.MeasureInt(yi, xi)
	yf := make([]float64, 128)
	Op[float64](s).Apply(yf, xf)
	// float path applies 1/√d; integer path defers it.
	for r := 0; r < 128; r++ {
		if math.Abs(float64(yi[r])*s.Scale()-yf[r]) > 1e-9 {
			t.Fatalf("row %d: int %d (scaled %v) vs float %v", r, yi[r], float64(yi[r])*s.Scale(), yf[r])
		}
	}
}

func TestAddMeasureIntStreamingEquals(t *testing.T) {
	s, _ := NewSparseBinary(128, 256, 12, 9)
	xi := make([]int16, 256)
	for i := range xi {
		xi[i] = int16(3*i - 200)
	}
	batch := make([]int32, 128)
	s.MeasureInt(batch, xi)
	stream := make([]int32, 128)
	for c, v := range xi {
		s.AddMeasureInt(stream, c, v)
	}
	for r := range batch {
		if batch[r] != stream[r] {
			t.Fatalf("row %d: batch %d, stream %d", r, batch[r], stream[r])
		}
	}
}

func TestSparseOpAdjoint(t *testing.T) {
	s, _ := NewSparseBinary(200, 400, 12, 17)
	if mm := linalg.AdjointMismatch(Op[float64](s), 5); mm > 1e-10 {
		t.Errorf("sparse op adjoint mismatch %v", mm)
	}
}

func TestSparseColumnsUnitNorm(t *testing.T) {
	// Each column has d entries of 1/√d ⇒ unit l2 norm; verify through
	// the operator on basis vectors.
	s, _ := NewSparseBinary(128, 256, 12, 23)
	op := Op[float64](s)
	x := make([]float64, 256)
	y := make([]float64, 128)
	for c := 0; c < 256; c += 37 {
		for i := range x {
			x[i] = 0
		}
		x[c] = 1
		op.Apply(y, x)
		if n := linalg.Norm2(y); math.Abs(float64(n)-1) > 1e-12 {
			t.Fatalf("column %d norm %v, want 1", c, n)
		}
	}
}

func TestMaxColumnCoherenceBounds(t *testing.T) {
	s, _ := NewSparseBinary(256, 512, 12, 4)
	mu := s.MaxColumnCoherence()
	if mu < 0 || mu > 1 {
		t.Fatalf("coherence %v out of [0,1]", mu)
	}
	// Random supports of weight 12 in 256 rows overlap far less than
	// fully; identical columns would have coherence 1.
	if mu > 0.8 {
		t.Errorf("coherence %v suspiciously high for random supports", mu)
	}
	if mu == 0 {
		t.Error("coherence 0 impossible: 512 columns of weight 12 in 256 rows must overlap")
	}
}

func TestGaussianStats(t *testing.T) {
	m, err := NewGaussian[float64](256, 512, 11)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	cnt := 0
	for i := 0; i < 256; i++ {
		for _, v := range m.Row(i) {
			sum += v
			sumSq += v * v
			cnt++
		}
	}
	mean := sum / float64(cnt)
	variance := sumSq/float64(cnt) - mean*mean
	if math.Abs(mean) > 3e-4 {
		t.Errorf("Gaussian mean %v, want ~0", mean)
	}
	if math.Abs(variance-1.0/512) > 1e-4 {
		t.Errorf("Gaussian variance %v, want %v", variance, 1.0/512)
	}
}

func TestBernoulliValues(t *testing.T) {
	m, err := NewBernoulli[float64](64, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(128)
	pos := 0
	for i := 0; i < 64; i++ {
		for _, v := range m.Row(i) {
			if math.Abs(math.Abs(v)-want) > 1e-15 {
				t.Fatalf("entry %v, want ±%v", v, want)
			}
			if v > 0 {
				pos++
			}
		}
	}
	frac := float64(pos) / float64(64*128)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("positive fraction %v, want ~0.5", frac)
	}
}

func TestIsometrySpreadGaussianTight(t *testing.T) {
	m, _ := NewGaussian[float64](256, 512, 5)
	lo, hi, err := IsometrySpread(linalg.OpFromDense(m), 20, 100, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Gaussian at M/N = 1/2, S = 20: spread stays well within [0.5, 1.5].
	if lo < 0.5 || hi > 1.5 {
		t.Errorf("Gaussian isometry spread [%v, %v] wider than expected", lo, hi)
	}
	if lo >= hi {
		t.Errorf("degenerate spread [%v, %v]", lo, hi)
	}
}

func TestIsometrySpreadSparseReasonable(t *testing.T) {
	s, _ := NewSparseBinary(256, 512, 12, 5)
	lo, hi, err := IsometrySpread(Op[float64](s), 20, 100, 77)
	if err != nil {
		t.Fatal(err)
	}
	// RIP-1 matrices have a wider l2 spread but must stay bounded.
	if lo < 0.3 || hi > 2.0 {
		t.Errorf("sparse binary isometry spread [%v, %v] out of sane range", lo, hi)
	}
}

func TestIsometrySpreadInvalid(t *testing.T) {
	s, _ := NewSparseBinary(64, 128, 4, 5)
	if _, _, err := IsometrySpread(Op[float64](s), 0, 10, 1); err == nil {
		t.Error("expected error for s=0")
	}
	if _, _, err := IsometrySpread(Op[float64](s), 129, 10, 1); err == nil {
		t.Error("expected error for s>N")
	}
}

func TestMeasureIntProperty(t *testing.T) {
	// Linearity: Φ(x1+x2) = Φx1 + Φx2 in exact integer arithmetic.
	s, _ := NewSparseBinary(64, 128, 6, 31)
	f := func(seed uint64) bool {
		gen := seed | 1
		x1 := make([]int16, 128)
		x2 := make([]int16, 128)
		xs := make([]int16, 128)
		for i := range x1 {
			gen ^= gen << 13
			gen ^= gen >> 7
			gen ^= gen << 17
			x1[i] = int16(gen % 500)
			x2[i] = int16((gen >> 16) % 500)
			xs[i] = x1[i] + x2[i]
		}
		y1 := make([]int32, 64)
		y2 := make([]int32, 64)
		ys := make([]int32, 64)
		s.MeasureInt(y1, x1)
		s.MeasureInt(y2, x2)
		s.MeasureInt(ys, xs)
		for r := range ys {
			if ys[r] != y1[r]+y2[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSparseMeasureInt512(b *testing.B) {
	s, _ := NewSparseBinary(256, 512, 12, 1)
	x := make([]int16, 512)
	for i := range x {
		x[i] = int16(i)
	}
	y := make([]int32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MeasureInt(y, x)
	}
}

func BenchmarkGaussianMeasure512(b *testing.B) {
	m, _ := NewGaussian[float64](256, 512, 1)
	x := make([]float64, 512)
	for i := range x {
		x[i] = float64(i)
	}
	y := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(y, x)
	}
}

// benchPhi runs one Φ apply at the decoder's operating points (N = 512,
// d = 12; M = 256 at CR 50, M = 102 at CR 80) on the Go loops (ref)
// and on the AVX2 gather kernels (kernel, skipped without AVX2). The
// names follow the sensing.apply and sensing.apply_t trace stages.
func benchPhi(b *testing.B, transpose bool) {
	for _, m := range []int{256, 102} {
		s, err := NewSparseBinaryLCG(m, 512, 12, 42)
		if err != nil {
			b.Fatal(err)
		}
		ops := []struct {
			name string
			op   func() linalg.Op[float32]
		}{
			{"ref", func() linalg.Op[float32] { return loopOp[float32](s) }},
			{"kernel", func() linalg.Op[float32] { return gatherOp(s) }},
		}
		for _, o := range ops {
			b.Run(fmt.Sprintf("M=%d/%s", m, o.name), func(b *testing.B) {
				if o.name == "kernel" && !linalg.HasAVX2() {
					b.Skip("no AVX2 on this CPU")
				}
				op := o.op()
				x, y := pseudoRandom[float32](512, 1), pseudoRandom[float32](m, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if transpose {
						op.ApplyT(x, y)
					} else {
						op.Apply(y, x)
					}
				}
			})
		}
	}
}

func BenchmarkSensingApply(b *testing.B)  { benchPhi(b, false) }
func BenchmarkSensingApplyT(b *testing.B) { benchPhi(b, true) }
