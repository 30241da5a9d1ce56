package analysis

import (
	"go/types"
	"testing"
)

// Contains reports whether v is in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

func TestIntervalLatticeOps(t *testing.T) {
	a := Interval{-5, 10}
	b := Interval{3, 20}
	if got := a.Union(b); got != (Interval{-5, 20}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != (Interval{3, 10}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Intersect(Interval{11, 12}); !got.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}
	if !a.ContainedIn(topInterval) || topInterval.ContainedIn(a) {
		t.Error("ContainedIn wrong against top")
	}
	if !a.Contains(0) || a.Contains(11) {
		t.Error("Contains wrong")
	}
}

func TestIntervalWiden(t *testing.T) {
	prev := Interval{0, 10}
	if got := (Interval{0, 11}).WidenFrom(prev); got != (Interval{0, posInf}) {
		t.Errorf("moved hi: WidenFrom = %v", got)
	}
	if got := (Interval{-1, 10}).WidenFrom(prev); got != (Interval{negInf, 10}) {
		t.Errorf("moved lo: WidenFrom = %v", got)
	}
	if got := prev.WidenFrom(prev); got != prev {
		t.Errorf("stable: WidenFrom = %v", got)
	}
}

func TestIntervalArithmetic(t *testing.T) {
	if got := single(3).Add(Interval{-2, 5}); got != (Interval{1, 8}) {
		t.Errorf("Add = %v", got)
	}
	if got := (Interval{1, 4}).Sub(Interval{2, 3}); got != (Interval{-2, 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := (Interval{-3, 2}).Neg(); got != (Interval{-2, 3}) {
		t.Errorf("Neg = %v", got)
	}
	// Mul takes the corner products, covering sign flips.
	if got := (Interval{-2, 3}).Mul(Interval{-5, 4}); got != (Interval{-15, 12}) {
		t.Errorf("Mul = %v", got)
	}
	if got := (Interval{1, 1}).Shl(single(4)); got != (Interval{16, 16}) {
		t.Errorf("Shl = %v", got)
	}
	if got := (Interval{-32768, 32767}).Shr(single(15)); got != (Interval{-1, 0}) {
		t.Errorf("Shr = %v", got)
	}
	// Positive divisor: straightforward quotient corners.
	if got := (Interval{-10, 9}).Div(single(3)); got != (Interval{-3, 3}) {
		t.Errorf("Div = %v", got)
	}
	// Mod magnitude is bounded by the divisor and follows the dividend's sign.
	if got := (Interval{0, 100}).Mod(single(8)); got != (Interval{0, 7}) {
		t.Errorf("Mod = %v", got)
	}
	// Masking with a non-negative operand bounds the result.
	if got := (Interval{0, 1000}).BitOp(single(15), "&"); got != (Interval{0, 15}) {
		t.Errorf("BitOp & = %v", got)
	}
	// A possibly-negative operand defeats the bit-level bound.
	if got := (Interval{-1, 1000}).BitOp(single(15), "&"); got != topInterval {
		t.Errorf("BitOp & with negative operand = %v, want top", got)
	}
}

func TestIntervalSaturation(t *testing.T) {
	// Finite overflow saturates to the sentinel instead of wrapping.
	big := Interval{posInf - 1, posInf - 1}
	if got := big.Add(single(10)); got.Hi != posInf {
		t.Errorf("Add near MaxInt64 = %v, want +inf hi", got)
	}
	if got := big.Mul(single(2)); got.Hi != posInf {
		t.Errorf("Mul near MaxInt64 = %v, want +inf hi", got)
	}
	// Sentinels are absorbing through negation and subtraction.
	if got := (Interval{negInf, 0}).Neg(); got != (Interval{0, posInf}) {
		t.Errorf("Neg of [-inf, 0] = %v", got)
	}
	if got := (Interval{0, posInf}).Sub(single(1)); got != (Interval{-1, posInf}) {
		t.Errorf("Sub from [0, +inf] = %v", got)
	}
}

func TestTypeInterval(t *testing.T) {
	cases := []struct {
		kind types.BasicKind
		want Interval
	}{
		{types.Int16, Interval{-32768, 32767}},
		{types.Int32, Interval{-1 << 31, 1<<31 - 1}},
		{types.Uint8, Interval{0, 255}},
		{types.Int8, Interval{-128, 127}},
	}
	for _, c := range cases {
		got, ok := typeInterval(types.Typ[c.kind])
		if !ok || got != c.want {
			t.Errorf("typeInterval(%v) = %v, %v; want %v", c.kind, got, ok, c.want)
		}
	}
	if _, ok := typeInterval(types.Typ[types.Float64]); ok {
		t.Error("typeInterval accepted float64")
	}
}

func TestIntervalString(t *testing.T) {
	if got := (Interval{-3, 7}).String(); got != "[-3, 7]" {
		t.Errorf("String = %q", got)
	}
	if got := topInterval.String(); got != "[-inf, +inf]" {
		t.Errorf("top String = %q", got)
	}
	if got := emptyInterval.String(); got != "∅" {
		t.Errorf("empty String = %q", got)
	}
}
