// Package dwtcomp implements the classical transform-coding alternative
// the CS literature positions itself against: wavelet-thresholding ECG
// compression (DWT → keep the K largest coefficients → quantize → pack).
//
// This is the "nonlinear digital technique" of the paper's introduction:
// it achieves excellent rate-distortion but demands a full filter-bank
// transform and a magnitude selection on the encoder — exactly the
// "resource-intensive DSP operations" CS avoids. To make the comparison
// honest on the mote model, the encoder's DWT runs in 16-bit fixed
// point (Q15 filter taps, 32-bit accumulators, the arithmetic an
// FPU-less MSP430 would use), and the cycle model prices its multiplies
// through the hardware multiplier.
//
// The experiment in internal/experiments compares this baseline against
// the CS encoder at matched wire budgets: transform coding wins on
// rate-distortion, CS wins on encoder cost and memory — the trade the
// paper's introduction describes.
package dwtcomp

import (
	"fmt"

	"csecg/internal/huffman"
	"csecg/internal/wavelet"
)

// Encoder is the mote-side wavelet-thresholding compressor.
type Encoder struct {
	n, levels int
	// Q15 analysis filters.
	h, g []int16
	// keepK is the number of retained coefficients.
	keepK int
	// scratch
	coeffs []int32
	buf    []int32
}

// Fixed bit widths of the packed format.
const (
	posBits = 9  // coefficient index within N=512
	valBits = 12 // sign + 11-bit magnitude after shift
	hdrBits = 16 + 4
)

// NewEncoder builds a fixed-point encoder for length-n windows keeping
// keepK coefficients of a db`order`, `levels`-deep decomposition.
func NewEncoder(n, order, levels, keepK int) (*Encoder, error) {
	if n != 1<<uint(bitsLen(n)-1) || n < 64 {
		return nil, fmt.Errorf("dwtcomp: window length %d must be a power of two ≥ 64", n)
	}
	if n > 1<<posBits {
		return nil, fmt.Errorf("dwtcomp: window length %d exceeds the %d-bit position field", n, posBits)
	}
	if keepK <= 0 || keepK > n {
		return nil, fmt.Errorf("dwtcomp: keepK %d out of [1, %d]", keepK, n)
	}
	h64, err := wavelet.DaubechiesFilter(order)
	if err != nil {
		return nil, err
	}
	if n>>uint(levels) < len(h64) || levels < 1 {
		return nil, fmt.Errorf("dwtcomp: %d levels too deep for db%d at n=%d", levels, order, n)
	}
	g64 := wavelet.QMF(h64)
	e := &Encoder{
		n: n, levels: levels, keepK: keepK,
		h:      make([]int16, len(h64)),
		g:      make([]int16, len(g64)),
		coeffs: make([]int32, n),
		buf:    make([]int32, n),
	}
	for i := range h64 {
		e.h[i] = int16(h64[i]*32768 + signOf(h64[i])*0.5)
		e.g[i] = int16(g64[i]*32768 + signOf(g64[i])*0.5)
	}
	return e, nil
}

func signOf(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func bitsLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// Encode compresses one zero-centered window (ADC counts − baseline).
func (e *Encoder) Encode(window []int16) ([]byte, error) {
	if len(window) != e.n {
		return nil, fmt.Errorf("dwtcomp: window length %d, want %d", len(window), e.n)
	}
	// Fixed-point DWT: samples carried as int32 with 4 fractional bits
	// so the Q15 multiplies keep headroom (|x| ≤ 1024·16 = 16384;
	// orthonormal growth stays < 2^31 by a wide margin).
	for i, v := range window {
		e.coeffs[i] = int32(v) << 4
	}
	size := e.n
	for lev := 0; lev < e.levels; lev++ {
		e.analyzeOne(e.buf[:size], e.coeffs[:size])
		copy(e.coeffs[:size], e.buf[:size])
		size /= 2
	}
	// Top-K selection by magnitude.
	type kv struct {
		pos int
		val int32
	}
	kept := make([]kv, 0, e.keepK)
	minIdx := 0
	absv := func(v int32) int32 {
		if v < 0 {
			return -v
		}
		return v
	}
	for pos, val := range e.coeffs {
		if len(kept) < e.keepK {
			kept = append(kept, kv{pos, val})
			if absv(val) < absv(kept[minIdx].val) {
				minIdx = len(kept) - 1
			}
			continue
		}
		if absv(val) > absv(kept[minIdx].val) {
			kept[minIdx] = kv{pos, val}
			minIdx = 0
			for i := range kept {
				if absv(kept[i].val) < absv(kept[minIdx].val) {
					minIdx = i
				}
			}
		}
	}
	// Quantize: shift magnitudes so the largest fits 11 bits.
	var maxAbs int32
	for _, c := range kept {
		if a := absv(c.val); a > maxAbs {
			maxAbs = a
		}
	}
	shift := 0
	for maxAbs>>uint(shift) > 2047 {
		shift++
	}
	w := huffman.NewBitWriter()
	w.WriteBits(uint32(uint16(e.keepK)), 16)
	w.WriteBits(uint32(shift), 4)
	for _, c := range kept {
		w.WriteBits(uint32(c.pos), posBits)
		mag := absv(c.val) >> uint(shift)
		sign := uint32(0)
		if c.val < 0 {
			sign = 1
		}
		w.WriteBits(sign<<11|uint32(mag), valBits)
	}
	return w.Bytes(), nil
}

// analyzeOne performs one fixed-point analysis split: Q15 taps, 64-bit
// accumulate, round, shift back.
func (e *Encoder) analyzeOne(dst, x []int32) {
	n := len(x)
	half := n / 2
	for k := 0; k < half; k++ {
		var a, d int64
		base := 2 * k
		for i := 0; i < len(e.h); i++ {
			idx := base + i
			if idx >= n {
				idx -= n
			}
			v := int64(x[idx])
			a += v * int64(e.h[i])
			d += v * int64(e.g[i])
		}
		dst[k] = int32((a + 1<<14) >> 15)
		dst[half+k] = int32((d + 1<<14) >> 15)
	}
}

// Decoder reconstructs on the coordinator (which has floating point).
type Decoder struct {
	n, levels int
	w         *wavelet.Transform[float64]
}

// NewDecoder mirrors the encoder's basis.
func NewDecoder(n, order, levels int) (*Decoder, error) {
	w, err := wavelet.New[float64](order, n, levels)
	if err != nil {
		return nil, err
	}
	return &Decoder{n: n, levels: levels, w: w}, nil
}

// Decode unpacks and inverse-transforms one window, returning
// zero-centered samples.
func (d *Decoder) Decode(data []byte) ([]int16, error) {
	r := huffman.NewBitReader(data)
	kRaw, err := r.ReadBits(16)
	if err != nil {
		return nil, fmt.Errorf("dwtcomp: reading header: %w", err)
	}
	k := int(kRaw)
	if k <= 0 || k > d.n {
		return nil, fmt.Errorf("dwtcomp: coefficient count %d out of [1, %d]", k, d.n)
	}
	shift, err := r.ReadBits(4)
	if err != nil {
		return nil, fmt.Errorf("dwtcomp: reading shift: %w", err)
	}
	coeffs := make([]float64, d.n)
	for i := 0; i < k; i++ {
		pos, err := r.ReadBits(posBits)
		if err != nil {
			return nil, fmt.Errorf("dwtcomp: reading position %d: %w", i, err)
		}
		if int(pos) >= d.n {
			return nil, fmt.Errorf("dwtcomp: position %d out of range", pos)
		}
		val, err := r.ReadBits(valBits)
		if err != nil {
			return nil, fmt.Errorf("dwtcomp: reading value %d: %w", i, err)
		}
		mag := float64(val&0x7FF) * float64(int64(1)<<shift)
		if val>>11 == 1 {
			mag = -mag
		}
		// Undo the encoder's 4 fractional bits.
		coeffs[pos] = mag / 16
	}
	x := make([]float64, d.n)
	d.w.Inverse(x, coeffs)
	out := make([]int16, d.n)
	for i, v := range x {
		switch {
		case v > 32767:
			out[i] = 32767
		case v < -32768:
			out[i] = -32768
		default:
			if v >= 0 {
				out[i] = int16(v + 0.5)
			} else {
				out[i] = int16(v - 0.5)
			}
		}
	}
	return out, nil
}

// EncoderCycles models the MSP430 cost of one window: the filter-bank
// MACs through the hardware multiplier, the top-K scan, and the packing.
func (e *Encoder) EncoderCycles() int64 {
	const (
		macCycles  = 42 // 16×32 multiply-accumulate via MPYS + carries + loads
		scanCycles = 14 // magnitude compare + bookkeeping per coefficient
		packCycles = 30 // per kept coefficient bit packing
	)
	// Σ block sizes over levels = 2N − N/2^{levels−1}; filterLen MACs per
	// output sample pair.
	blockSum := int64(2*e.n - e.n>>uint(e.levels-1))
	macs := blockSum * int64(len(e.h))
	return macs*macCycles + int64(e.n)*scanCycles + int64(e.keepK)*packCycles
}

// KForBudget returns the keepK that fits a bit budget.
func KForBudget(bits int) int {
	k := (bits - hdrBits) / (posBits + valBits)
	if k < 1 {
		k = 1
	}
	return k
}
