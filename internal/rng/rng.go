// Package rng provides deterministic pseudo-random number generators for
// the CS-ECG pipeline.
//
// The pipeline needs reproducible randomness in three places: the sparse
// binary sensing matrix (column support selection), the dense Gaussian and
// Bernoulli baseline sensing matrices, and the synthetic ECG record set
// (per-record morphology, noise and arrhythmia). All of them must be
// bit-reproducible across runs and platforms, so this package implements
// its own generators instead of relying on math/rand internals, which are
// free to change between Go releases.
//
// Two classes of generator are provided:
//
//   - Xoshiro256** seeded through SplitMix64: the reference generator used
//     on the decoder/coordinator side and in the experiment harness.
//   - LCG16: a 16-bit multiplicative congruential generator cheap enough
//     for the MSP430-class mote model (one 16×16 hardware multiply per
//     draw), used to regenerate sensing-matrix supports on the node.
package rng

import "math"

// SplitMix64 is a tiny 64-bit generator used to expand a single seed word
// into the larger state of Xoshiro256. It is also a fine standalone
// generator for non-critical uses.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value of the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro implements xoshiro256**, a fast all-purpose 64-bit generator
// with a 2^256−1 period. The zero value is not a valid generator; use
// New.
type Xoshiro struct {
	s [4]uint64

	// spare-normal cache for NormFloat64.
	spare     float64
	haveSpare bool
}

// New returns a Xoshiro generator whose 256-bit state is expanded from
// seed with SplitMix64, as recommended by the xoshiro authors. Any seed,
// including zero, yields a valid state.
func New(seed uint64) *Xoshiro {
	sm := NewSplitMix64(seed)
	var x Xoshiro
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// The all-zero state is the single invalid state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64-bit value of the sequence.
func (x *Xoshiro) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method keeps the draw unbiased without
// a modulo in the common case.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := x.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 bits
// of precision.
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) form of the Box-Muller transform. One spare variate is
// cached between calls.
func (x *Xoshiro) NormFloat64() float64 {
	if x.haveSpare {
		x.haveSpare = false
		return x.spare
	}
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		x.spare = v * f
		x.haveSpare = true
		return u * f
	}
}

// Bernoulli returns true with probability p.
func (x *Xoshiro) Bernoulli(p float64) bool {
	return x.Float64() < p
}

// Sign returns +1 or −1 with equal probability, the symmetric Bernoulli
// variate used for ±1/√N Bernoulli sensing matrices.
func (x *Xoshiro) Sign() int {
	if x.Uint64()&1 == 0 {
		return 1
	}
	return -1
}

// SampleK writes k distinct integers drawn uniformly from [0, n) into dst
// in ascending order. It panics if k > n or len(dst) < k. The selection
// uses Floyd's algorithm, touching O(k) memory, which matters when the
// mote regenerates the support of one sensing-matrix column at a time.
func (x *Xoshiro) SampleK(dst []int, k, n int) {
	if k > n {
		panic("rng: SampleK with k > n")
	}
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := x.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
	}
	i := 0
	//csecg:orderok dst is insertion-sorted below, erasing iteration order
	for v := range chosen {
		dst[i] = v
		i++
	}
	insertionSort(dst[:k])
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
