// Package rangechecktest exercises the rangecheck interval analyzer:
// wrapping arithmetic, narrowing conversions, degenerate shifts, and the
// refinements (saturation clamps, guarded conversions) that prove the
// corresponding sites clean.
package rangechecktest

const (
	maxQ15 = 1<<15 - 1
	minQ15 = -1 << 15
)

// mulWrap keeps a 16×16 product in int16 — the canonical un-widened
// multiply the analyzer exists to catch.
func mulWrap(a, b int16) int16 {
	return a * b // want "int16 multiplication may wrap"
}

// mulWidened is the correct idiom: widen before multiplying. The int32
// product of two int16 ranges fits int32, so nothing fires.
func mulWidened(a, b int16) int32 {
	return int32(a) * int32(b)
}

// addWrap adds two full-range int32 values.
func addWrap(a, b int32) int32 {
	return a + b // want "int32 addition may wrap"
}

// negWrap negates a full-range int16: -(-32768) = 32768 does not fit.
func negWrap(v int16) int16 {
	return -v // want "int16 negation may wrap"
}

// shiftWrap shifts value bits off the top of an int16.
func shiftWrap(v int16) int16 {
	return v << 2 // want "int16 left shift may wrap"
}

// shiftAway discards every value bit: the count equals the width.
func shiftAway(v int16) int16 {
	return v >> 16 // want "shift count .* every value bit is discarded"
}

// narrow converts a full-range int32 to int16 with no guard.
func narrow(s int32) int16 {
	return int16(s) // want "conversion int32→int16 may truncate: source interval .* exceeds destination range"
}

// satAdd is the fixedpoint.SatAdd shape: the tagless-switch saturation
// clamp refines s to [minQ15, maxQ15] on the fall-through path, so the
// final narrowing conversion is proven and nothing fires.
func satAdd(a, b int16) int16 {
	s := int32(a) + int32(b)
	switch {
	case s > maxQ15:
		s = maxQ15
	case s < minQ15:
		s = minQ15
	}
	return int16(s)
}

// guardedNarrow proves the conversion through an explicit branch test
// (&& refinement) instead of a clamp.
func guardedNarrow(v int32) int16 {
	if v >= minQ15 && v <= maxQ15 {
		return int16(v)
	}
	return 0
}

// loopWrap increments an int16 counter with no bound: loop widening
// drives the counter interval to +inf and the increment reports.
func loopWrap(n int) int16 {
	var c int16
	for i := 0; i < n; i++ {
		c++ // want "int16 addition may wrap"
	}
	return c
}

// accumulate64 is the tree's infinite-precision-accumulator idiom:
// 64-bit results never report.
func accumulate64(xs []int16) int64 {
	var acc int64
	for _, x := range xs {
		acc += int64(x)
	}
	return acc
}

// crcStep uses unsigned arithmetic: defined modular, never reports.
func crcStep(crc, b uint16) uint16 {
	return crc*31 + b
}

// waived documents intentional wraparound per statement.
func waived(a, b int16) int16 {
	return a * b //csecg:rangeok deliberate modular mixing step
}

// hostOnly is exempt wholesale: host-side code may rely on 64-bit int.
//
//csecg:host offline helper, never runs on the mote
func hostOnly(a, b int16) int16 {
	return a * b
}

// accumulateWrap adds a constant per iteration with no bound: the
// accumulator widens to +inf and the compound assignment reports.
func accumulateWrap(n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		acc += 1000 // want "int16 addition may wrap"
	}
	return acc
}

// continueInSwitch reaches the loop head only through a continue inside
// a switch case: the continue must resolve to the loop, not the switch,
// so the widened accumulator still reports.
func continueInSwitch(n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		switch {
		case i%2 == 0:
			acc += 1000 // want "int16 addition may wrap"
			continue
		}
	}
	return acc
}

// fallthroughWrap carries the first case's env into the second through
// fallthrough: 30000 + 3000 wraps int16.
func fallthroughWrap(n int) int16 {
	var acc int16
	switch {
	case n > 0:
		acc = 30000
		fallthrough
	case n < 100:
		acc += 3000 // want "int16 addition may wrap"
	}
	return acc
}
