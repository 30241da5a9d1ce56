package rng

import "slices"

// LCG16 is a 16-bit linear congruential generator sized for the
// MSP430-class mote model. One draw costs a single 16×16→32 hardware
// multiply plus an add, which is the cheapest way the node can
// regenerate the pseudo-random support of the sensing matrix without
// storing it (the paper's approach (2) stores pre-generated randomness;
// approach (3), reproduced here, derives the sparse support from a tiny
// seeded generator shared between encoder and decoder).
//
// The generator is a full-period mixed LCG modulo 2^16 with the Hull-
// Dobell conditions satisfied (c odd, a−1 divisible by 4), so every
// 16-bit state occurs exactly once per period.
type LCG16 struct {
	state uint16
}

// LCG16 parameters. a−1 = 0x6C78 is divisible by 4 and c is odd, giving
// the full 2^16 period.
const (
	lcgMulA = 0x6C79
	lcgIncC = 0x5D2B
)

// NewLCG16 returns an LCG16 seeded with seed. All seeds are valid.
func NewLCG16(seed uint16) *LCG16 {
	return &LCG16{state: seed}
}

// Uint16 advances the generator and returns the new state.
func (g *LCG16) Uint16() uint16 {
	g.state = g.state*lcgMulA + lcgIncC
	return g.state
}

// Intn returns a value in [0, n) by the fixed-point multiply-shift trick:
// (draw × n) >> 16. This is exactly the operation an MSP430 performs with
// its hardware multiplier and introduces a bias below 1/2^16 per bucket,
// irrelevant for support selection but accounted for in tests.
func (g *LCG16) Intn(n int) int {
	if n <= 0 || n > 1<<16 {
		panic("rng: LCG16.Intn range out of [1, 65536]")
	}
	return int(uint32(g.Uint16()) * uint32(n) >> 16)
}

// SampleK writes k distinct integers from [0, n) into dst in ascending
// order using repeated rejection, mirroring the mote's column-support
// generation. It panics if k > n. Duplicates are found by scanning the
// values drawn so far, which at the sensing matrix's column weight (12
// by default) is cheaper than a set and allocates nothing.
func (g *LCG16) SampleK(dst []int, k, n int) {
	if k > n {
		panic("rng: LCG16.SampleK with k > n")
	}
	for i := 0; i < k; {
		v := g.Intn(n)
		if slices.Contains(dst[:i], v) {
			continue
		}
		dst[i] = v
		i++
	}
	insertionSort(dst[:k])
}
