package analysis

import (
	"fmt"
	"go/constant"
	"go/types"
	"math"
)

// This file is the abstract domain of the v3 interval engine: signed
// integer intervals with saturating int64 bounds. math.MinInt64 and
// math.MaxInt64 double as -∞/+∞ sentinels — every concrete value a Go
// integer expression of width ≤ 64 can take fits strictly inside, except
// the extremes themselves, and conflating "exactly MinInt64" with "−∞"
// only ever widens an interval, which is the sound direction for an
// analyzer whose findings are "this may wrap".

const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

// Interval is the inclusive value range [Lo, Hi]; Lo > Hi is the empty
// set (an unreachable value, e.g. after contradictory refinements).
type Interval struct{ Lo, Hi int64 }

var (
	topInterval   = Interval{negInf, posInf}
	emptyInterval = Interval{1, 0}
)

func single(v int64) Interval { return Interval{v, v} }

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// ContainedIn reports iv ⊆ o (the empty interval is contained in all).
func (iv Interval) ContainedIn(o Interval) bool {
	return iv.Empty() || !o.Empty() && o.Lo <= iv.Lo && iv.Hi <= o.Hi
}

// Union returns the convex hull of both intervals.
func (iv Interval) Union(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	return Interval{min(iv.Lo, o.Lo), max(iv.Hi, o.Hi)}
}

// Intersect returns the common sub-range (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)}
}

// WidenFrom accelerates a fixpoint: any bound that moved since prev
// jumps straight to its infinity, so loops converge in O(1) passes.
func (iv Interval) WidenFrom(prev Interval) Interval {
	if prev.Empty() || iv.Empty() {
		return iv
	}
	w := iv
	if iv.Lo < prev.Lo {
		w.Lo = negInf
	}
	if iv.Hi > prev.Hi {
		w.Hi = posInf
	}
	return w
}

// String renders "[lo, hi]" with infinity sentinels spelled out.
func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != negInf {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != posInf {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return "[" + lo + ", " + hi + "]"
}

// Saturating bound arithmetic. Sentinels are absorbing; finite overflow
// saturates toward the overflow direction.

func addBound(a, b int64) int64 {
	switch {
	case a == negInf || b == negInf:
		return negInf
	case a == posInf || b == posInf:
		return posInf
	}
	s := a + b
	switch {
	case b > 0 && s < a:
		return posInf
	case b < 0 && s > a:
		return negInf
	}
	return s
}

func negBound(a int64) int64 {
	switch a {
	case negInf:
		return posInf
	case posInf:
		return negInf
	}
	return -a
}

func mulBound(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	inf := int64(posInf)
	if neg {
		inf = negInf
	}
	if a == negInf || a == posInf || b == negInf || b == posInf {
		return inf
	}
	p := a * b
	if p/b != a {
		return inf
	}
	return p
}

func shlBound(a, k int64) int64 {
	if a == 0 {
		return 0
	}
	if a == negInf || a == posInf {
		return a
	}
	inf := int64(posInf)
	if a < 0 {
		inf = negInf
	}
	if k >= 63 {
		return inf
	}
	r := a << uint(k)
	if r>>uint(k) != a {
		return inf
	}
	return r
}

func shrBound(a, k int64) int64 {
	if a == negInf || a == posInf {
		return a
	}
	if k > 63 {
		k = 63
	}
	return a >> uint(k)
}

// Add returns the interval of a+b over all pairs.
func (iv Interval) Add(o Interval) Interval {
	if iv.Empty() || o.Empty() {
		return emptyInterval
	}
	return Interval{addBound(iv.Lo, o.Lo), addBound(iv.Hi, o.Hi)}
}

// Sub returns the interval of a−b over all pairs.
func (iv Interval) Sub(o Interval) Interval {
	if iv.Empty() || o.Empty() {
		return emptyInterval
	}
	return Interval{addBound(iv.Lo, negBound(o.Hi)), addBound(iv.Hi, negBound(o.Lo))}
}

// Neg returns the interval of −a.
func (iv Interval) Neg() Interval {
	if iv.Empty() {
		return emptyInterval
	}
	return Interval{negBound(iv.Hi), negBound(iv.Lo)}
}

// Mul returns the interval of a×b; products are monotone in each
// operand, so the four corner products bound the result.
func (iv Interval) Mul(o Interval) Interval {
	if iv.Empty() || o.Empty() {
		return emptyInterval
	}
	c := [4]int64{
		mulBound(iv.Lo, o.Lo), mulBound(iv.Lo, o.Hi),
		mulBound(iv.Hi, o.Lo), mulBound(iv.Hi, o.Hi),
	}
	r := Interval{c[0], c[0]}
	for _, v := range c[1:] {
		r.Lo = min(r.Lo, v)
		r.Hi = max(r.Hi, v)
	}
	return r
}

// Shl returns the interval of a << k for shift counts clamped to
// [0, 63] (counts beyond only shift more bits out, which the clamp
// already saturates; negative counts panic at runtime, not here).
func (iv Interval) Shl(k Interval) Interval {
	if iv.Empty() || k.Empty() {
		return emptyInterval
	}
	kl, kh := max(k.Lo, 0), min(max(k.Hi, 0), 63)
	c := [4]int64{
		shlBound(iv.Lo, kl), shlBound(iv.Lo, kh),
		shlBound(iv.Hi, kl), shlBound(iv.Hi, kh),
	}
	r := Interval{c[0], c[0]}
	for _, v := range c[1:] {
		r.Lo = min(r.Lo, v)
		r.Hi = max(r.Hi, v)
	}
	return r
}

// Shr returns the interval of the arithmetic shift a >> k.
func (iv Interval) Shr(k Interval) Interval {
	if iv.Empty() || k.Empty() {
		return emptyInterval
	}
	kl, kh := max(k.Lo, 0), min(max(k.Hi, 0), 63)
	c := [4]int64{
		shrBound(iv.Lo, kl), shrBound(iv.Lo, kh),
		shrBound(iv.Hi, kl), shrBound(iv.Hi, kh),
	}
	r := Interval{c[0], c[0]}
	for _, v := range c[1:] {
		r.Lo = min(r.Lo, v)
		r.Hi = max(r.Hi, v)
	}
	return r
}

func divBound(a, d int64) int64 {
	if a == negInf || a == posInf {
		if d < 0 {
			return negBound(a)
		}
		return a
	}
	if d == negInf || d == posInf {
		return 0 // |d| > |a|: quotient truncates to zero
	}
	return a / d
}

// Div returns the interval of the truncating quotient a/b. Division by
// zero panics at runtime and contributes no value; MinInt/−1 (the one
// wrapping case) is absorbed by the sentinel bounds.
func (iv Interval) Div(o Interval) Interval {
	if iv.Empty() || o.Empty() {
		return emptyInterval
	}
	r := emptyInterval
	// Positive divisors [max(Lo,1), Hi] and negative [Lo, min(Hi,−1)],
	// each monotone in both operands.
	if ph := o.Hi; ph >= 1 {
		pl := max(o.Lo, 1)
		part := Interval{
			min(divBound(iv.Lo, pl), divBound(iv.Lo, ph)),
			max(divBound(iv.Hi, pl), divBound(iv.Hi, ph)),
		}
		r = r.Union(part)
	}
	if nl := o.Lo; nl <= -1 {
		nh := min(o.Hi, -1)
		part := Interval{
			min(divBound(iv.Hi, nl), divBound(iv.Hi, nh)),
			max(divBound(iv.Lo, nl), divBound(iv.Lo, nh)),
		}
		r = r.Union(part)
	}
	return r
}

func magHi(iv Interval) int64 {
	return max(negBound(iv.Lo), iv.Hi)
}

// Mod returns the interval of a%b: the remainder's sign follows a and
// its magnitude is below both |a| and |b|.
func (iv Interval) Mod(o Interval) Interval {
	if iv.Empty() || o.Empty() {
		return emptyInterval
	}
	m := magHi(o)
	if m != posInf && m > 0 {
		m--
	}
	m = min(m, magHi(iv))
	r := Interval{negBound(m), m}
	if iv.Lo >= 0 {
		r.Lo = 0
	}
	if iv.Hi <= 0 {
		r.Hi = 0
	}
	return r
}

// BitOp returns a bound for &, |, ^ and &^. Only non-negative operands
// get a useful bound (the common masking idiom); anything else is top.
func (iv Interval) BitOp(o Interval, op string) Interval {
	if iv.Empty() || o.Empty() {
		return emptyInterval
	}
	if iv.Lo < 0 || o.Lo < 0 {
		return topInterval
	}
	switch op {
	case "&":
		return Interval{0, min(iv.Hi, o.Hi)}
	case "&^":
		return Interval{0, iv.Hi}
	default: // | and ^ stay below the next power of two
		h := max(iv.Hi, o.Hi)
		if h == posInf {
			return Interval{0, posInf}
		}
		b := int64(1)
		for b <= h && b < 1<<62 {
			b <<= 1
		}
		return Interval{0, b - 1}
	}
}

// intSpec resolves t (through named types) to an integer width and
// signedness. The host model sizes int/uint/uintptr at 64 bits — the
// 16-bit device story lives in stackcheck's types.Sizes model, while
// rangecheck deliberately skips 64-bit results (DESIGN.md §15).
func intSpec(t types.Type) (width int, signed, ok bool) {
	b, isBasic := t.Underlying().(*types.Basic)
	if !isBasic {
		return 0, false, false
	}
	switch b.Kind() {
	case types.Int8:
		return 8, true, true
	case types.Int16:
		return 16, true, true
	case types.Int32, types.UntypedRune:
		return 32, true, true
	case types.Int64, types.Int, types.UntypedInt:
		return 64, true, true
	case types.Uint8:
		return 8, false, true
	case types.Uint16:
		return 16, false, true
	case types.Uint32:
		return 32, false, true
	case types.Uint64, types.Uint, types.Uintptr:
		return 64, false, true
	}
	return 0, false, false
}

// typeInterval returns the representable range of an integer type
// (named types — Q15, Q31 — resolve through their underlying basic).
func typeInterval(t types.Type) (Interval, bool) {
	w, signed, ok := intSpec(t)
	if !ok {
		return topInterval, false
	}
	if !signed {
		if w >= 64 {
			return Interval{0, posInf}, true
		}
		return Interval{0, 1<<uint(w) - 1}, true
	}
	if w >= 64 {
		return topInterval, true
	}
	return Interval{-1 << uint(w-1), 1<<uint(w-1) - 1}, true
}

// constInterval converts a typed or untyped constant to an interval.
// Constants beyond int64 saturate toward the matching sentinel.
func constInterval(v constant.Value) (Interval, bool) {
	if v == nil {
		return topInterval, false
	}
	v = constant.ToInt(v)
	if v.Kind() != constant.Int {
		return topInterval, false
	}
	if x, exact := constant.Int64Val(v); exact {
		return single(x), true
	}
	if constant.Sign(v) > 0 {
		return single(posInf), true
	}
	return single(negInf), true
}
