package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// MaxCodeLen is the paper's hard codeword-length limit: 16 bits, so the
// mote stores each codeword in one uint16.
const MaxCodeLen = 16

// tableBits is the index width of the decode table: every codeword of at
// most tableBits bits decodes with one lookup of the next tableBits bits.
// The default codebook gives its 141 shortest codewords (5–10 bits) to
// the differences nearest zero, the bulk of every delta frame.
const tableBits = 10

// tableEntry is one slot of the decode table: the symbol whose codeword
// prefixes the slot's index, and that codeword's length. Length 0 marks
// an index no codeword of at most tableBits bits prefixes.
type tableEntry struct {
	sym    uint16
	length uint8
}

// errInvalidCodeword is returned when MaxCodeLen bits match no codeword,
// which only an incomplete code can produce.
var errInvalidCodeword = errors.New("huffman: invalid codeword")

// Codebook is a canonical, length-limited Huffman code over symbols
// 0..NumSymbols−1. The zero value is unusable; build with Train or
// Deserialize.
type Codebook struct {
	lengths []uint8  // per-symbol codeword lengths (0 = never coded)
	codes   []uint16 // per-symbol canonical codewords, right-aligned
	// table resolves every codeword of at most tableBits bits in one
	// lookup; the canonical tables below finish the longer ones.
	table [1 << tableBits]tableEntry
	// Canonical decode tables, one entry per length 1..MaxCodeLen. The
	// counters are int, not int32: a full 2¹⁶-symbol alphabet of
	// 16-bit codes makes countByLen[16] = 65536, and the old int32
	// accumulation in fromLengths/Decode sat 2 bits from wrapping with
	// no guard (rangecheck flags exactly that). Decode tables live on
	// the coordinator — only codes and lengths are serialized to flash —
	// so the widening costs the mote ledger nothing.
	firstCode  [MaxCodeLen + 1]uint32 // first canonical code of each length
	firstIndex [MaxCodeLen + 1]int    // index into symByCode of that code
	countByLen [MaxCodeLen + 1]int
	symByCode  []uint16 // symbols sorted by (length, code)
}

// Train builds a codebook from symbol frequencies. Every symbol with a
// nonzero frequency receives a codeword of at most MaxCodeLen bits; pass
// smoothed frequencies (all ≥ 1) to get the paper's complete 512-entry
// codebook. Training is an offline step — the mote only stores the
// result.
func Train(freq []int) (*Codebook, error) {
	if len(freq) > 1<<MaxCodeLen {
		return nil, fmt.Errorf("huffman: alphabet %d too large for %d-bit codes", len(freq), MaxCodeLen)
	}
	lengths, err := LengthLimitedCodeLengths(freq, MaxCodeLen)
	if err != nil {
		return nil, err
	}
	return fromLengths(lengths)
}

func fromLengths(lengths []int) (*Codebook, error) {
	cb := &Codebook{
		lengths: make([]uint8, len(lengths)),
		codes:   make([]uint16, len(lengths)),
	}
	type entry struct{ sym, length int }
	var coded []entry
	for s, l := range lengths {
		if l < 0 || l > MaxCodeLen {
			return nil, fmt.Errorf("huffman: symbol %d length %d out of [0, %d]", s, l, MaxCodeLen)
		}
		cb.lengths[s] = uint8(l)
		if l > 0 {
			coded = append(coded, entry{s, l})
		}
	}
	if len(coded) == 0 {
		return nil, fmt.Errorf("huffman: no coded symbols")
	}
	// Kraft inequality must hold or decoding is ambiguous.
	if kraftSum(lengths, MaxCodeLen) > 1<<MaxCodeLen {
		return nil, fmt.Errorf("huffman: lengths violate Kraft inequality")
	}
	// Canonical assignment: sort by (length, symbol), codes count up and
	// shift left at each length increase.
	sort.Slice(coded, func(i, j int) bool {
		if coded[i].length != coded[j].length {
			return coded[i].length < coded[j].length
		}
		return coded[i].sym < coded[j].sym
	})
	code := uint32(0)
	prevLen := coded[0].length
	cb.symByCode = make([]uint16, len(coded))
	for idx, e := range coded {
		code <<= uint(e.length - prevLen)
		prevLen = e.length
		cb.codes[e.sym] = uint16(code)
		cb.symByCode[idx] = uint16(e.sym)
		cb.countByLen[e.length]++
		if e.length <= tableBits {
			lo := code << uint(tableBits-e.length)
			for i := lo; i < lo+1<<uint(tableBits-e.length); i++ {
				cb.table[i] = tableEntry{sym: uint16(e.sym), length: uint8(e.length)}
			}
		}
		code++
	}
	// Decode tables: first canonical code and start index per length.
	var first uint32
	var index int
	for l := 1; l <= MaxCodeLen; l++ {
		cb.firstCode[l] = first
		cb.firstIndex[l] = index
		first = (first + uint32(cb.countByLen[l])) << 1
		index += cb.countByLen[l]
	}
	return cb, nil
}

// NumSymbols returns the alphabet size.
func (cb *Codebook) NumSymbols() int { return len(cb.lengths) }

// CodeLen returns the codeword length of symbol s (0 if s is not coded).
func (cb *Codebook) CodeLen(s int) int { return int(cb.lengths[s]) }

// MaxLen returns the longest codeword length in use.
func (cb *Codebook) MaxLen() int {
	for l := MaxCodeLen; l >= 1; l-- {
		if cb.countByLen[l] > 0 {
			return l
		}
	}
	return 0
}

// Encode appends the codeword of symbol s to w. It returns an error if s
// has no codeword.
//
//csecg:hotpath one table lookup per coded symbol
func (cb *Codebook) Encode(w *BitWriter, s int) error {
	if s < 0 || s >= len(cb.lengths) || cb.lengths[s] == 0 {
		return fmt.Errorf("huffman: symbol %d not in codebook", s) //csecg:allocok error path, never taken per-sample
	}
	w.WriteBits(uint32(cb.codes[s]), uint(cb.lengths[s]))
	return nil
}

// Decode reads one symbol from r. It peeks at the next bits once: a
// codeword of at most tableBits bits resolves with one table lookup, and
// a longer one against the canonical tables on the same MaxCodeLen bits,
// with no further read.
//
// It returns ErrOutOfBits when the codeword runs past the end of the
// stream, or when no codeword matches the fewer than MaxCodeLen bits
// left, and an invalid-codeword error when MaxCodeLen bits match none.
// On an error the reader stands where a bit-at-a-time decode stops: at
// the end of the stream, or MaxCodeLen bits on.
func (cb *Codebook) Decode(r *BitReader) (int, error) {
	w, avail := r.peek(MaxCodeLen)
	var n uint
	var sym int
	if e := cb.table[w>>(64-tableBits)]; e.length != 0 {
		n, sym = uint(e.length), int(e.sym)
	} else {
		n, sym = cb.decodeLong(uint32(w >> (64 - MaxCodeLen)))
	}
	switch {
	case n == 0 && avail >= MaxCodeLen:
		r.skip(MaxCodeLen)
		return 0, errInvalidCodeword
	case n == 0 || n > avail:
		r.skip(avail)
		return 0, ErrOutOfBits
	}
	r.skip(n)
	return sym, nil
}

// decodeLong matches the codewords longer than tableBits against the
// next MaxCodeLen bits, shortest first. It returns the codeword's length
// and symbol, or length 0 when none matches.
func (cb *Codebook) decodeLong(bits uint32) (uint, int) {
	for l := tableBits + 1; l <= MaxCodeLen; l++ {
		cnt := cb.countByLen[l]
		if cnt == 0 {
			continue
		}
		offset := int64(bits>>uint(MaxCodeLen-l)) - int64(cb.firstCode[l])
		if offset >= 0 && offset < int64(cnt) {
			return uint(l), int(cb.symByCode[cb.firstIndex[l]+int(offset)])
		}
	}
	return 0, 0
}

// serialization layout (all little-endian):
//
//	magic  uint16 = 0xCB16
//	nsym   uint16
//	codes  nsym × uint16   (the paper's 1 kB for 512 symbols)
//	length nsym × uint8    (the paper's 512 B)
//
// Codewords are redundant with the lengths (canonical codes are
// derivable), but the mote stores both to avoid rebuild cost at boot —
// this mirrors the paper's 1 kB + 512 B flash budget, which
// internal/mote accounts for.
const serialMagic = 0xCB16

// SerializedSize returns the byte size of a serialized codebook over n
// symbols.
func SerializedSize(n int) int { return 4 + 2*n + n }

// Serialize encodes the codebook in the mote's flash layout.
func (cb *Codebook) Serialize() []byte {
	n := len(cb.lengths)
	out := make([]byte, SerializedSize(n))
	binary.LittleEndian.PutUint16(out[0:], serialMagic)
	binary.LittleEndian.PutUint16(out[2:], uint16(n))
	for s := 0; s < n; s++ {
		binary.LittleEndian.PutUint16(out[4+2*s:], cb.codes[s])
	}
	copy(out[4+2*n:], cb.lengths)
	return out
}

// Deserialize reconstructs a codebook from Serialize output, rebuilding
// the decode tables and verifying the stored codewords against the
// canonical assignment implied by the lengths.
func Deserialize(data []byte) (*Codebook, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("huffman: serialized codebook too short")
	}
	if binary.LittleEndian.Uint16(data[0:]) != serialMagic {
		return nil, fmt.Errorf("huffman: bad codebook magic")
	}
	n := int(binary.LittleEndian.Uint16(data[2:]))
	if n == 0 {
		n = 1 << 16
	}
	if len(data) != SerializedSize(n) {
		return nil, fmt.Errorf("huffman: serialized size %d, want %d for %d symbols", len(data), SerializedSize(n), n)
	}
	lengths := make([]int, n)
	for s := 0; s < n; s++ {
		lengths[s] = int(data[4+2*n+s])
	}
	cb, err := fromLengths(lengths)
	if err != nil {
		return nil, err
	}
	for s := 0; s < n; s++ {
		stored := binary.LittleEndian.Uint16(data[4+2*s:])
		if cb.lengths[s] > 0 && stored != cb.codes[s] {
			return nil, fmt.Errorf("huffman: stored codeword for symbol %d is not canonical", s)
		}
	}
	return cb, nil
}

// ExpectedBits returns the average codeword length (in bits/symbol) under
// the given frequency distribution, the quantity the offline training
// minimizes.
//
//csecg:host training statistic, evaluated off-device
func (cb *Codebook) ExpectedBits(freq []int) float64 {
	var total, weighted int64
	for s, f := range freq {
		if s >= len(cb.lengths) {
			break
		}
		total += int64(f)
		weighted += int64(f) * int64(cb.lengths[s])
	}
	if total == 0 {
		return 0
	}
	return float64(weighted) / float64(total)
}
