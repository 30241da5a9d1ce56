package linalg

import (
	"math"
	"strings"
	"testing"
)

// TestGather8MatchesRowLoops checks both gathers against the scalar row
// loops bit for bit on a pattern with empty rows, rows of lengths 0 to
// 9 and a partial last group (13 rows).
func TestGather8MatchesRowLoops(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	const in = 11
	ptr := []int32{0}
	var idx []int32
	for o := 0; o < 13; o++ {
		for k := 0; k < o%10; k++ {
			idx = append(idx, int32((3*o+5*k)%in))
		}
		ptr = append(ptr, int32(len(idx)))
	}
	g, err := NewGather8(in, ptr, idx)
	if err != nil {
		t.Fatal(err)
	}
	src := []float32{1e-3, -7, 3.25, float32(math.Inf(1)), 1e30, -1e30, 0.1, -0.1, 5, float32(math.Copysign(0, -1)), 1e-45}
	const scale = 0.28867513
	sum, scaled := make([]float32, 13), make([]float32, 13)
	g.Sum(sum, src, scale)
	g.SumScaled(scaled, src, scale)
	for o := 0; o < 13; o++ {
		var a, b float32
		for _, c := range idx[ptr[o]:ptr[o+1]] {
			a += src[c]
			b += src[c] * scale
		}
		a *= scale
		if math.Float32bits(sum[o]) != math.Float32bits(a) {
			t.Errorf("Sum row %d = %v, loop %v", o, sum[o], a)
		}
		if math.Float32bits(scaled[o]) != math.Float32bits(b) {
			t.Errorf("SumScaled row %d = %v, loop %v", o, scaled[o], b)
		}
	}
	for _, f := range []func(dst, src []float32, scale float32){g.Sum, g.SumScaled} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "dimension mismatch") {
					t.Errorf("short dst: recovered %q, want a dimension mismatch panic", msg)
				}
			}()
			f(sum[:12], src, scale)
		}()
	}
}

func TestNewGather8RejectsBadLayouts(t *testing.T) {
	cases := []struct {
		name     string
		in       int
		ptr, idx []int32
	}{
		{"no offsets", 4, nil, nil},
		{"offsets short of idx", 4, []int32{0, 1}, []int32{0, 1}},
		{"decreasing offsets", 4, []int32{0, 2, 1, 2}, []int32{0, 1}},
		{"index past source", 4, []int32{0, 1}, []int32{4}},
		{"negative index", 4, []int32{0, 1}, []int32{-1}},
	}
	for _, c := range cases {
		if _, err := NewGather8(c.in, c.ptr, c.idx); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}
