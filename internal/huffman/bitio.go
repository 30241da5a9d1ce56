// Package huffman implements the entropy-coding stage of the encoder: a
// canonical, length-limited Huffman code over the 512-symbol alphabet of
// inter-packet difference values [−256, 255].
//
// The paper stores an offline-generated codebook of 512 codewords (1 kB,
// 16-bit codewords) plus 512 codeword lengths (512 B) in the mote's
// flash, with a maximum codeword length of 16 bits. This package
// reproduces that exact layout: codebooks are trained with the
// package-merge algorithm (optimal under a hard length limit), assigned
// canonically, and serialize to the same 1 kB + 512 B footprint.
package huffman

import (
	"errors"
	"fmt"
)

// BitWriter accumulates codewords MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within nbits
	nbit uint   // number of pending bits in cur
}

// NewBitWriter returns an empty BitWriter.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBits appends the low `width` bits of code, most significant first.
// width must be in [0, 32].
//
//csecg:hotpath the Huffman emit inner loop, one call per symbol
func (w *BitWriter) WriteBits(code uint32, width uint) {
	if width > 32 {
		panic("huffman: WriteBits width > 32")
	}
	w.cur = w.cur<<width | uint64(code&(1<<width-1))
	w.nbit += width
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit)) //csecg:allocok amortized: buf is retained across Reset
	}
}

// Bytes flushes any partial byte (zero-padded on the right) and returns
// the accumulated buffer. The writer remains usable; subsequent writes
// start on a byte boundary.
//
//csecg:hotpath closes each delta frame's bitstream
func (w *BitWriter) Bytes() []byte {
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit))) //csecg:allocok amortized: buf is retained across Reset
		w.cur, w.nbit = 0, 0
	}
	return w.buf
}

// Reset clears the writer for reuse.
func (w *BitWriter) Reset() { w.buf, w.cur, w.nbit = w.buf[:0], 0, 0 }

// BitReader consumes bits MSB-first from a byte slice.
type BitReader struct {
	buf []byte
	pos int  // next byte index
	cur uint // bit position within buf[pos] (0 = MSB)
}

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ErrOutOfBits is returned when a read runs past the end of the buffer.
var ErrOutOfBits = errors.New("huffman: out of bits")

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint32, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	b := (r.buf[r.pos] >> (7 - r.cur)) & 1
	r.cur++
	if r.cur == 8 {
		r.cur = 0
		r.pos++
	}
	return uint32(b), nil
}

// ReadBits returns the next width bits, MSB-first. width must be ≤ 32.
func (r *BitReader) ReadBits(width uint) (uint32, error) {
	if width > 32 {
		return 0, fmt.Errorf("huffman: ReadBits width %d > 32", width)
	}
	var v uint32
	for i := uint(0); i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}
