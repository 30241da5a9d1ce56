// Package fixedpoint is the rangecheck saturation fixture: Q15/Q31
// formats and saturating operations in the MSP430 style, whose
// MaxQ15/MinQ15 clamp switches are themselves the proof that no
// conversion wraps. TestFixedpointProvesClean runs rangecheck over it
// unmodified and TestFixedpointClampRemovalDetected with the satQ15
// clamp deleted.
package fixedpoint

// Q15 is a signed fixed-point value with 15 fractional bits, covering
// [−1, 1−2⁻¹⁵]. It is the natural format of the MSP430 hardware
// multiplier's fractional mode.
type Q15 int16

// Q31 is a signed fixed-point value with 31 fractional bits, used for
// accumulators.
type Q31 int32

// Fixed-point limits.
const (
	MaxQ15 = Q15(1<<15 - 1)
	MinQ15 = Q15(-1 << 15)
	MaxQ31 = Q31(1<<31 - 1)
	MinQ31 = Q31(-1 << 31)
)

// FromFloat converts f (expected in [−1, 1)) to Q15, saturating on
// overflow and rounding to nearest. It is the host-side entry point for
// preparing fixed-point constants; the firmware only ever sees the Q15.
//
//csecg:host float→Q15 conversion happens when building tables, off-device
func FromFloat(f float64) Q15 {
	v := f * (1 << 15)
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	switch {
	case v > float64(MaxQ15):
		return MaxQ15
	case v < float64(MinQ15):
		return MinQ15
	}
	return Q15(int32(v))
}

// Float returns the real value represented by q.
//
//csecg:host decoder/test-side view of a Q15
func (q Q15) Float() float64 { return float64(q) / (1 << 15) }

// Float returns the real value represented by q.
//
//csecg:host decoder/test-side view of a Q31
func (q Q31) Float() float64 { return float64(q) / (1 << 31) }

// SatAdd returns a+b with saturation at the Q15 limits, mirroring the
// MSP430 saturating add sequence the encoder uses for the difference
// signal.
func SatAdd(a, b Q15) Q15 {
	s := int32(a) + int32(b)
	return satQ15(s)
}

// SatSub returns a−b with saturation.
func SatSub(a, b Q15) Q15 {
	return satQ15(int32(a) - int32(b))
}

func satQ15(s int32) Q15 {
	switch {
	case s > int32(MaxQ15):
		return MaxQ15
	case s < int32(MinQ15):
		return MinQ15
	}
	return Q15(s)
}

// Mul returns the Q15 product a×b using the 16×16→32 hardware multiplier
// semantics: full 32-bit product, round, then arithmetic shift right 15.
// The single non-representable case, MinQ15×MinQ15, saturates.
func Mul(a, b Q15) Q15 {
	p := int32(a) * int32(b)
	p += 1 << 14 // round to nearest
	return satQ15(p >> 15)
}

// MAC accumulates a×b into a Q31 accumulator without intermediate
// rounding, exactly as the MSP430's MACS instruction chain does. The
// caller narrows once at the end with (Q31).NarrowQ15.
func MAC(acc Q31, a, b Q15) Q31 {
	p := int64(a) * int64(b) // Q30
	s := int64(acc) + p
	switch {
	case s > int64(MaxQ31):
		return MaxQ31
	case s < int64(MinQ31):
		return MinQ31
	}
	return Q31(s)
}

// NarrowQ15 converts a Q31 accumulator holding a Q30 sum-of-products back
// to Q15 with rounding and saturation.
func (q Q31) NarrowQ15() Q15 {
	s := (int64(q) + 1<<14) >> 15
	switch {
	case s > int64(MaxQ15):
		return MaxQ15
	case s < int64(MinQ15):
		return MinQ15
	}
	return Q15(s)
}

// DotQ15 computes the Q15 dot product of a and b through a Q31
// accumulator. It panics if the lengths differ.
func DotQ15(a, b []Q15) Q15 {
	if len(a) != len(b) {
		panic("fixedpoint: DotQ15 length mismatch")
	}
	var acc Q31
	for i := range a {
		acc = MAC(acc, a[i], b[i])
	}
	return acc.NarrowQ15()
}

// SumInt16Sat sums 16-bit integers into a saturating 32-bit accumulator,
// the operation at the heart of the sparse binary measurement (each
// measurement is a sum of d raw samples).
func SumInt16Sat(xs []int16) int32 {
	var acc int64
	for _, v := range xs {
		acc += int64(v)
	}
	switch {
	case acc > int64(MaxQ31):
		return int32(MaxQ31)
	case acc < int64(MinQ31):
		return int32(MinQ31)
	}
	return int32(acc)
}

// ClampInt16 narrows v to int16 with saturation.
func ClampInt16(v int32) int16 {
	switch {
	case v > 1<<15-1:
		return 1<<15 - 1
	case v < -1<<15:
		return -1 << 15
	}
	return int16(v)
}
