package huffman

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The bit-serial reader and decoder that BitReader and Decode replaced.
// They read one bit per step and check the canonical tables at every
// length, and they stay here as the oracle the table decode must match:
// the same symbol or value, the same error class, and the same reader
// position afterwards.

// serialReader consumes bits MSB-first from a byte slice, one at a time.
type serialReader struct {
	buf []byte
	pos int  // next byte index
	cur uint // bit position within buf[pos] (0 = MSB)
}

// readBit returns the next bit.
func (r *serialReader) readBit() (uint32, error) {
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

// readBits returns the next width bits, MSB-first. width must be ≤ 32.
func (r *serialReader) readBits(width uint) (uint32, error) {
	if width > 32 {
		return 0, fmt.Errorf("huffman: ReadBits width %d > 32", width)
	}
	var v uint32
	for i := uint(0); i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// decodeSerial reads one symbol from r, one bit and one canonical-table
// check per codeword length (at most MaxCodeLen bit reads).
func (cb *Codebook) decodeSerial(r *serialReader) (int, error) {
	var code uint32
	for l := 1; l <= MaxCodeLen; l++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | b
		cnt := cb.countByLen[l]
		if cnt == 0 {
			continue
		}
		offset := int64(code) - int64(cb.firstCode[l])
		if offset >= 0 && offset < int64(cnt) {
			return int(cb.symByCode[cb.firstIndex[l]+int(offset)]), nil
		}
	}
	return 0, errInvalidCodeword
}

// errClass names an error for comparison: nil, out of bits, invalid
// codeword, or anything else.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrOutOfBits):
		return "out of bits"
	case errors.Is(err, errInvalidCodeword):
		return "invalid codeword"
	}
	return "other: " + err.Error()
}

// compareWithSerial runs one script of operations over data on a table
// reader and a serial reader side by side. Each op is a Decode (op < 0)
// or a ReadBits(op). It stops at the first error and reports the first
// difference in value, error class or reader position.
func compareWithSerial(cb *Codebook, data []byte, ops []int) error {
	fast, slow := NewBitReader(data), &serialReader{buf: data}
	for i, op := range ops {
		var got, want uint32
		var gerr, werr error
		if op < 0 {
			var g, w int
			g, gerr = cb.Decode(fast)
			w, werr = cb.decodeSerial(slow)
			got, want = uint32(g), uint32(w)
		} else {
			got, gerr = fast.ReadBits(uint(op))
			want, werr = slow.readBits(uint(op))
		}
		if gc, wc := errClass(gerr), errClass(werr); gc != wc {
			return fmt.Errorf("op %d (%d): error %q, serial %q", i, op, gc, wc)
		}
		if werr == nil && got != want {
			return fmt.Errorf("op %d (%d): value %d, serial %d", i, op, got, want)
		}
		// The table reader has consumed the bits before its window.
		if at, want := 8*fast.next-int(fast.nwin), 8*slow.pos+int(slow.cur); at != want {
			return fmt.Errorf("op %d (%d): reader at bit %d, serial at bit %d", i, op, at, want)
		}
		if werr != nil {
			return nil
		}
	}
	return nil
}

// randomLengths draws codeword lengths for an alphabet of n symbols:
// symbols in random order take random lengths while the Kraft budget
// lasts, and a random share of them stay uncoded. Half the codes are
// then completed; the others are mostly incomplete.
func randomLengths(rng *rand.Rand, n int) []int {
	lengths := kraftLengths(rng.Perm(n)[:1+rng.Intn(n)], n, func(int) int { return 1 + rng.Intn(MaxCodeLen) })
	if rng.Intn(2) == 0 {
		completeLengths(lengths)
	}
	return lengths
}

// kraftLengths gives the symbols of order, in that order, the lengths
// next returns for them (0 leaves a symbol uncoded), each lengthened as
// far as the Kraft budget left needs. A symbol that fits at no length,
// and every symbol not in order, stays uncoded.
func kraftLengths(order []int, n int, next func(s int) int) []int {
	lengths := make([]int, n)
	budget := 1 << MaxCodeLen
	for _, s := range order {
		l := next(s)
		if l == 0 {
			continue
		}
		for l <= MaxCodeLen && 1<<uint(MaxCodeLen-l) > budget {
			l++
		}
		if l > MaxCodeLen {
			break
		}
		budget -= 1 << uint(MaxCodeLen-l)
		lengths[s] = l
	}
	return lengths
}

// completeLengths shortens codewords, longest first, until the lengths
// meet the Kraft inequality with equality, so that every bit string
// starts with a codeword. Only a code of one symbol stays incomplete.
func completeLengths(lengths []int) {
	budget := 1 << MaxCodeLen
	for _, l := range lengths {
		if l > 0 {
			budget -= 1 << uint(MaxCodeLen-l)
		}
	}
	// Before the pass over length l every length is at most l, so the
	// budget left is a multiple of 2^(MaxCodeLen−l): shortening one
	// codeword of length l never overdraws it.
	for l := MaxCodeLen; l > 1 && budget > 0; l-- {
		for s := range lengths {
			if lengths[s] == l && budget > 0 {
				lengths[s]--
				budget -= 1 << uint(MaxCodeLen-l)
			}
		}
	}
}

// TestDecodeMatchesSerial compares the table decode and the word reader
// with the bit-serial oracle on random codebooks, complete and
// incomplete, over random streams: valid encodings cut at random points
// and random bytes, read by random mixes of Decode and ReadBits.
func TestDecodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for c := 0; c < 300; c++ {
		cb, err := fromLengths(randomLengths(rng, 2+rng.Intn(599)))
		if err != nil {
			t.Fatal(err)
		}
		var coded []int
		for s := 0; s < cb.NumSymbols(); s++ {
			if cb.CodeLen(s) > 0 {
				coded = append(coded, s)
			}
		}
		for k := 0; k < 20; k++ {
			var data []byte
			if k%2 == 0 {
				w := NewBitWriter()
				for i := rng.Intn(80); i > 0; i-- {
					if err := cb.Encode(w, coded[rng.Intn(len(coded))]); err != nil {
						t.Fatal(err)
					}
				}
				data = w.Bytes()
				data = data[:rng.Intn(len(data)+1)]
			} else {
				data = make([]byte, rng.Intn(40))
				rng.Read(data)
			}
			ops := make([]int, 100)
			for i := range ops {
				ops[i] = -1
				if rng.Intn(8) == 0 {
					ops[i] = rng.Intn(33)
				}
			}
			if err := compareWithSerial(cb, data, ops); err != nil {
				t.Fatalf("codebook %d, stream %d (%d bytes): %v", c, k, len(data), err)
			}
		}
	}
}
