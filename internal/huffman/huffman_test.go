package huffman

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// BitLen returns the number of bits written so far (before padding).
func (w *BitWriter) BitLen() int { return len(w.buf)*8 + int(w.nbit) }

// EncodeAll encodes the symbol slice and returns the packed bytes plus
// the exact bit count (before byte padding).
func (cb *Codebook) EncodeAll(symbols []int) ([]byte, int, error) {
	w := NewBitWriter()
	for _, s := range symbols {
		if err := cb.Encode(w, s); err != nil {
			return nil, 0, err
		}
	}
	bits := w.BitLen()
	return w.Bytes(), bits, nil
}

// DecodeAll decodes exactly count symbols from data.
func (cb *Codebook) DecodeAll(data []byte, count int) ([]int, error) {
	r := NewBitReader(data)
	out := make([]int, count)
	for i := range out {
		s, err := cb.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("huffman: decoding symbol %d/%d: %w", i, count, err)
		}
		out[i] = s
	}
	return out, nil
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0b1, 1)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(0, 0)
	w.WriteBits(0x3, 2)
	bits := w.BitLen()
	if bits != 22 {
		t.Fatalf("BitLen = %d, want 22", bits)
	}
	r := NewBitReader(w.Bytes())
	checks := []struct {
		width uint
		want  uint32
	}{{3, 0b101}, {1, 1}, {16, 0xABCD}, {2, 3}}
	for i, c := range checks {
		got, err := r.ReadBits(c.width)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("field %d = %#x, want %#x", i, got, c.want)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("expected ErrOutOfBits, got %v", err)
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	f := func(vals []uint32, widthsRaw []uint8) bool {
		n := len(vals)
		if len(widthsRaw) < n {
			n = len(widthsRaw)
		}
		w := NewBitWriter()
		widths := make([]uint, n)
		for i := 0; i < n; i++ {
			widths[i] = uint(widthsRaw[i]%32) + 1
			w.WriteBits(vals[i], widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				return false
			}
			want := vals[i] & (1<<widths[i] - 1)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthLimitedBasic(t *testing.T) {
	// Classic example: freq 1,1,2,3,5 → optimal Huffman lengths 3,3,2,2,1...
	// verify Kraft equality and optimality within limit.
	freq := []int{1, 1, 2, 3, 5}
	lengths, err := LengthLimitedCodeLengths(freq, 16)
	if err != nil {
		t.Fatal(err)
	}
	if kraftSum(lengths, MaxCodeLen) != 1<<MaxCodeLen {
		t.Errorf("Kraft sum not exactly 1: lengths %v", lengths)
	}
	// Higher frequency never gets a longer code.
	for i := range freq {
		for j := range freq {
			if freq[i] > freq[j] && lengths[i] > lengths[j] {
				t.Errorf("freq %d > %d but length %d > %d", freq[i], freq[j], lengths[i], lengths[j])
			}
		}
	}
}

func TestLengthLimitEnforced(t *testing.T) {
	// Fibonacci-like frequencies force unlimited Huffman depth ~ n; the
	// limit must cap it.
	freq := make([]int, 24)
	a, b := 1, 1
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
	}
	lengths, err := LengthLimitedCodeLengths(freq, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s, l := range lengths {
		if l > 8 {
			t.Errorf("symbol %d length %d exceeds limit 8", s, l)
		}
		if l == 0 && freq[s] > 0 {
			t.Errorf("symbol %d with freq %d got no code", s, freq[s])
		}
	}
	if kraftSum(lengths, MaxCodeLen) != 1<<MaxCodeLen {
		t.Error("Kraft equality violated under length limit")
	}
}

func TestLengthLimitedMatchesEntropy(t *testing.T) {
	// Average code length must be within 1 bit of the entropy
	// (Huffman optimality), and respect the entropy lower bound.
	freq := []int{100, 60, 30, 20, 10, 5, 3, 2, 1, 1}
	lengths, err := LengthLimitedCodeLengths(freq, 16)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range freq {
		total += float64(f)
	}
	var entropy, avg float64
	for s, f := range freq {
		p := float64(f) / total
		entropy -= p * math.Log2(p)
		avg += p * float64(lengths[s])
	}
	if avg < entropy-1e-9 {
		t.Errorf("average length %v below entropy %v (impossible)", avg, entropy)
	}
	if avg > entropy+1 {
		t.Errorf("average length %v more than 1 bit above entropy %v", avg, entropy)
	}
}

func TestLengthLimitedEdgeCases(t *testing.T) {
	if _, err := LengthLimitedCodeLengths(nil, 16); err == nil {
		t.Error("empty alphabet: expected error")
	}
	if _, err := LengthLimitedCodeLengths([]int{0, 0}, 16); err == nil {
		t.Error("all-zero frequencies: expected error")
	}
	if _, err := LengthLimitedCodeLengths([]int{1, -1}, 16); err == nil {
		t.Error("negative frequency: expected error")
	}
	if _, err := LengthLimitedCodeLengths(make([]int, 10), 0); err == nil {
		t.Error("maxLen 0: expected error")
	}
	// Single symbol gets one bit.
	lengths, err := LengthLimitedCodeLengths([]int{0, 7, 0}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[1] != 1 || lengths[0] != 0 || lengths[2] != 0 {
		t.Errorf("single-symbol lengths = %v", lengths)
	}
	// 5 symbols cannot fit in 2-bit codes.
	if _, err := LengthLimitedCodeLengths([]int{1, 1, 1, 1, 1}, 2); err == nil {
		t.Error("5 symbols at maxLen 2: expected error")
	}
	// 4 symbols exactly fit 2-bit codes.
	lengths, err = LengthLimitedCodeLengths([]int{1, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if l != 2 {
			t.Errorf("uniform 4-symbol lengths = %v, want all 2", lengths)
		}
	}
}

func TestCodebookRoundTrip(t *testing.T) {
	freq := make([]int, 512)
	// Laplacian-ish distribution centered at 256 (diff = 0).
	for i := range freq {
		d := i - 256
		if d < 0 {
			d = -d
		}
		freq[i] = 1 + 100000/(1+d*d)
	}
	cb, err := Train(freq)
	if err != nil {
		t.Fatal(err)
	}
	symbols := []int{256, 255, 257, 0, 511, 300, 100, 256, 256}
	data, bits, err := cb.EncodeAll(symbols)
	if err != nil {
		t.Fatal(err)
	}
	if bits <= 0 || len(data) != (bits+7)/8 {
		t.Fatalf("bits %d, bytes %d inconsistent", bits, len(data))
	}
	back, err := cb.DecodeAll(data, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if back[i] != symbols[i] {
			t.Fatalf("symbol %d: decoded %d, want %d", i, back[i], symbols[i])
		}
	}
}

func TestCodebookCompleteness512(t *testing.T) {
	// The paper's codebook covers all 512 symbols with ≤ 16-bit words.
	freq := make([]int, 512)
	for i := range freq {
		d := i - 256
		freq[i] = 1 + 50000/(1+d*d/4) // heavy center, smoothed tails
	}
	cb, err := Train(freq)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 512; s++ {
		l := cb.CodeLen(s)
		if l < 1 || l > 16 {
			t.Fatalf("symbol %d length %d out of [1, 16]", s, l)
		}
	}
	if cb.MaxLen() > 16 {
		t.Fatalf("MaxLen %d", cb.MaxLen())
	}
}

func TestCodebookRoundTripProperty(t *testing.T) {
	freq := make([]int, 64)
	for i := range freq {
		freq[i] = 1 + (64-i)*(64-i)
	}
	cb, err := Train(freq)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint8) bool {
		symbols := make([]int, len(raw))
		for i, v := range raw {
			symbols[i] = int(v) % 64
		}
		data, _, err := cb.EncodeAll(symbols)
		if err != nil {
			return false
		}
		back, err := cb.DecodeAll(data, len(symbols))
		if err != nil {
			return false
		}
		for i := range symbols {
			if back[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeDeserialize(t *testing.T) {
	freq := make([]int, 512)
	for i := range freq {
		d := i - 256
		if d < 0 {
			d = -d
		}
		freq[i] = 1 + 10000/(1+d)
	}
	cb, err := Train(freq)
	if err != nil {
		t.Fatal(err)
	}
	blob := cb.Serialize()
	// Paper layout: 1 kB codewords + 512 B lengths (+ 4 B header).
	if len(blob) != 4+1024+512 {
		t.Fatalf("serialized size %d, want %d", len(blob), 4+1024+512)
	}
	back, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	symbols := []int{0, 1, 255, 256, 257, 511}
	data, _, err := cb.EncodeAll(symbols)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.DecodeAll(data, len(symbols))
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if got[i] != symbols[i] {
			t.Fatalf("deserialized codebook mismatch at %d", i)
		}
	}
}

func TestDeserializeRejectsCorruption(t *testing.T) {
	freq := []int{5, 3, 2, 1}
	cb, _ := Train(freq)
	blob := cb.Serialize()
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF // magic
	if _, err := Deserialize(bad); err == nil {
		t.Error("corrupt magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad = bad[:len(bad)-1] // truncated
	if _, err := Deserialize(bad); err == nil {
		t.Error("truncated blob accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[4] ^= 0x01 // non-canonical codeword
	if _, err := Deserialize(bad); err == nil {
		t.Error("non-canonical codeword accepted")
	}
}

func TestEncodeUnknownSymbol(t *testing.T) {
	cb, _ := Train([]int{1, 1, 0, 1})
	w := NewBitWriter()
	if err := cb.Encode(w, 2); err == nil {
		t.Error("encoding zero-frequency symbol should fail")
	}
	if err := cb.Encode(w, 99); err == nil {
		t.Error("encoding out-of-range symbol should fail")
	}
}

func TestDecodeGarbage(t *testing.T) {
	// A codebook that doesn't cover all 16-bit prefixes must reject
	// garbage rather than loop.
	cb, err := Train([]int{1000, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = cb
	// All-ones stream will eventually hit an invalid prefix or run out.
	r := NewBitReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	for i := 0; i < 40; i++ {
		if _, err := cb.Decode(r); err != nil {
			return // expected: either invalid codeword or out of bits
		}
	}
}

func TestExpectedBits(t *testing.T) {
	freq := []int{8, 4, 2, 2}
	cb, err := Train(freq)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: lengths 1,2,3,3 → avg = (8·1+4·2+2·3+2·3)/16 = 1.75.
	if got := cb.ExpectedBits(freq); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("ExpectedBits = %v, want 1.75", got)
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Encoding a peaked distribution must beat the 9-bit raw width of
	// the 512-symbol alphabet.
	freq := make([]int, 512)
	for i := range freq {
		d := i - 256
		if d < 0 {
			d = -d
		}
		freq[i] = 1 + 200000/(1+d*d)
	}
	cb, err := Train(freq)
	if err != nil {
		t.Fatal(err)
	}
	if avg := cb.ExpectedBits(freq); avg >= 9 {
		t.Errorf("average %v bits/symbol does not beat raw 9", avg)
	}
}

func BenchmarkTrain512(b *testing.B) {
	freq := make([]int, 512)
	for i := range freq {
		d := i - 256
		if d < 0 {
			d = -d
		}
		freq[i] = 1 + 100000/(1+d*d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(freq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode256Symbols(b *testing.B) {
	freq := make([]int, 512)
	for i := range freq {
		d := i - 256
		if d < 0 {
			d = -d
		}
		freq[i] = 1 + 100000/(1+d*d)
	}
	cb, _ := Train(freq)
	symbols := make([]int, 256)
	for i := range symbols {
		symbols[i] = 256 + (i%21 - 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cb.EncodeAll(symbols); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode256Symbols(b *testing.B) {
	freq := make([]int, 512)
	for i := range freq {
		d := i - 256
		if d < 0 {
			d = -d
		}
		freq[i] = 1 + 100000/(1+d*d)
	}
	cb, _ := Train(freq)
	symbols := make([]int, 256)
	for i := range symbols {
		symbols[i] = 256 + (i%21 - 10)
	}
	data, _, _ := cb.EncodeAll(symbols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cb.DecodeAll(data, len(symbols)); err != nil {
			b.Fatal(err)
		}
	}
}
