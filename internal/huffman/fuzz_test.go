package huffman

import "testing"

// FuzzDeserialize hardens the codebook loader: arbitrary bytes must
// never panic, and an accepted codebook must round-trip symbols.
func FuzzDeserialize(f *testing.F) {
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
		f.Fatal(err)
	}
	f.Add(cb.Serialize())
	f.Add([]byte{})
	f.Add([]byte{0x16, 0xCB, 0x00, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Deserialize(data)
		if err != nil {
			return
		}
		// An accepted codebook must encode/decode its first coded
		// symbol consistently.
		for s := 0; s < got.NumSymbols(); s++ {
			if got.CodeLen(s) == 0 {
				continue
			}
			blob, _, err := got.EncodeAll([]int{s})
			if err != nil {
				t.Fatalf("accepted codebook cannot encode symbol %d: %v", s, err)
			}
			back, err := got.DecodeAll(blob, 1)
			if err != nil || back[0] != s {
				t.Fatalf("round trip failed for symbol %d: %v %v", s, back, err)
			}
			break
		}
	})
}

// FuzzDecodeStream hardens the canonical decoder against garbage
// bitstreams: it must either error or return in-range symbols, and the
// accepted prefix must re-encode to the same bits.
func FuzzDecodeStream(f *testing.F) {
	freq := make([]int, 64)
	for i := range freq {
		freq[i] = 1 + (64-i)*(64-i)
	}
	cb, err := Train(freq)
	if err != nil {
		f.Fatal(err)
	}
	valid, _, _ := cb.EncodeAll([]int{0, 5, 63, 17})
	f.Add(valid, 4)
	f.Add([]byte{0xFF, 0xFF, 0xFF}, 10)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1024 {
			return
		}
		symbols, err := cb.DecodeAll(data, count)
		if err != nil {
			return
		}
		w := NewBitWriter()
		for _, s := range symbols {
			if s < 0 || s >= 64 {
				t.Fatalf("decoded out-of-range symbol %d", s)
			}
			if err := cb.Encode(w, s); err != nil {
				t.Fatalf("re-encoding decoded symbol %d: %v", s, err)
			}
		}
		re := w.Bytes()
		// The re-encoded stream must be a bit-prefix of the input.
		for i := range re {
			if i == len(re)-1 {
				break // final byte may differ in padding bits
			}
			if i < len(data) && re[i] != data[i] {
				t.Fatalf("re-encoded stream diverges at byte %d", i)
			}
		}
	})
}

// FuzzDecodeMatchesSerial checks the table decode and the word reader
// against the bit-serial oracle (serial_test.go). The fuzzer picks the
// code: the bytes of lens, mod 17, are the lengths of the n symbols
// (2 to 600) while the Kraft budget lasts, and with complete set the
// code is then completed. It also picks the stream and the reads: each
// byte of ops up to 32 is a ReadBits of that width, any other a Decode
// (with no ops, Decode until the stream ends). Every read must give the
// same value, the same error class and the same reader position as the
// oracle.
func FuzzDecodeMatchesSerial(f *testing.F) {
	long := []byte{1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16}
	lengths := make([]int, len(long))
	for i, l := range long {
		lengths[i] = int(l)
	}
	cb, err := fromLengths(lengths)
	if err != nil {
		f.Fatal(err)
	}
	valid, _, _ := cb.EncodeAll([]int{15, 0, 12, 14, 5, 13})
	f.Add(true, uint16(14), []byte{1, 2, 3, 250, 9, 0, 40}, valid, []byte{})
	f.Add(false, uint16(14), long, valid[:len(valid)-1], []byte{})
	f.Add(false, uint16(0), []byte{1, 3}, []byte{0xFF, 0xFF}, []byte{255})
	f.Add(false, uint16(0), []byte{1, 3}, []byte{0x02}, []byte{})
	f.Add(false, uint16(598), []byte{12, 16, 14, 0, 11}, []byte{0x9C, 0x01, 0xFF, 0xFF, 0x3A}, []byte{255, 24, 255, 0, 3, 255, 32, 255})
	f.Fuzz(func(t *testing.T, complete bool, n uint16, lens, data, ops []byte) {
		if len(lens) == 0 || len(ops) > 1024 || len(data) > 1024 {
			return
		}
		size := 2 + int(n)%599
		order := make([]int, size)
		for i := range order {
			order[i] = i
		}
		lengths := kraftLengths(order, size, func(s int) int {
			return int(lens[s%len(lens)]) % (MaxCodeLen + 1)
		})
		if complete {
			completeLengths(lengths)
		}
		cb, err := fromLengths(lengths)
		if err != nil {
			return
		}
		script := make([]int, len(ops))
		for i, b := range ops {
			script[i] = -1
			if b <= 32 {
				script[i] = int(b)
			}
		}
		if len(script) == 0 {
			script = make([]int, 8*len(data)+1)
			for i := range script {
				script[i] = -1
			}
		}
		if err := compareWithSerial(cb, data, script); err != nil {
			t.Fatal(err)
		}
	})
}
