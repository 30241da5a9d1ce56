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
	"encoding/binary"
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

// BitReader consumes bits MSB-first from a byte slice through a 64-bit
// window: peek tops the window up with one word load when it runs low
// and skip shifts consumed bits out, so neither a field read nor a
// codeword loops over single bits.
type BitReader struct {
	buf  []byte
	next int    // index of the first byte not yet loaded into win
	win  uint64 // the unread bits, left-aligned
	nwin uint   // how many leading bits of win are unread bits of buf
}

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ErrOutOfBits is returned when a read runs past the end of the buffer.
var ErrOutOfBits = errors.New("huffman: out of bits")

// peek returns the window and the number of unread bits at its head, at
// least need (≤ 32) unless fewer remain in the buffer. Past the head the
// window holds the stream's next bits or zeros, and only zeros once the
// buffer is used up.
func (r *BitReader) peek(need uint) (uint64, uint) {
	if r.nwin < need {
		r.fill()
	}
	return r.win, r.nwin
}

// fill loads whole bytes behind the unread bits: at least 56 unread
// bits follow, or all that remain. A full word load may also set bits
// past the last whole byte; they are the stream's next bits, which the
// following fill ORs in again. It stays out of line so that peek, run
// once per codeword, inlines.
//
//go:noinline
func (r *BitReader) fill() {
	if tail := r.buf[r.next:]; len(tail) >= 8 {
		r.win |= binary.BigEndian.Uint64(tail) >> r.nwin
		k := (63 - r.nwin) >> 3
		r.next += int(k)
		r.nwin += 8 * k
		return
	}
	for ; r.nwin <= 56 && r.next < len(r.buf); r.next++ {
		r.win |= uint64(r.buf[r.next]) << (56 - r.nwin)
		r.nwin += 8
	}
}

// skip consumes n bits; n must not exceed the count peek reports, which
// is below 64, so the mask only spares the shift its ≥ 64 guard.
func (r *BitReader) skip(n uint) {
	r.win <<= n & 63
	r.nwin -= n
}

// ReadBits returns the next width bits, MSB-first. width must be ≤ 32.
// A read past the end returns ErrOutOfBits and leaves the reader at the
// end of the buffer.
func (r *BitReader) ReadBits(width uint) (uint32, error) {
	if width > 32 {
		return 0, fmt.Errorf("huffman: ReadBits width %d > 32", width)
	}
	w, avail := r.peek(width)
	if width > avail {
		r.skip(avail)
		return 0, ErrOutOfBits
	}
	r.skip(width)
	return uint32(w >> (64 - width)), nil
}
