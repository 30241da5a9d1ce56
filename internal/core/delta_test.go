package core

import (
	"errors"
	"testing"

	"csecg/internal/huffman"
	"csecg/internal/metrics"
)

// deltaFrame returns a decoder holding the key frame of a seed-42 CR 50
// stream of record 100 and the delta frame that follows it.
func deltaFrame(t *testing.T) (*Decoder[float32], *Packet) {
	t.Helper()
	p := Params{Seed: 42, M: metrics.MForCR(50, WindowSize)}
	pkts := encodeStream(t, p, 2)
	if pkts[1].Kind != KindDelta {
		t.Fatalf("window 1 is kind %d, want a delta frame", pkts[1].Kind)
	}
	dec, err := NewDecoder[float32](p)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.decodeKey(pkts[0]); err != nil {
		t.Fatal(err)
	}
	return dec, pkts[1]
}

// TestDecodeDeltaTotal feeds the delta decode malformed copies of a real
// frame. A payload cut at any byte boundary drops real bits (the last
// byte holds at least one), so each cut must run out of bits. Each
// single-bit flip must either fail or decode all M measurements; none
// may panic.
func TestDecodeDeltaTotal(t *testing.T) {
	dec, pkt := deltaFrame(t)
	key := append([]int32(nil), dec.prevY...)
	if err := dec.decodeDelta(pkt); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	for n := 0; n < len(pkt.Payload); n++ {
		copy(dec.prevY, key)
		cut := *pkt
		cut.Payload = pkt.Payload[:n]
		if err := dec.decodeDelta(&cut); !errors.Is(err, huffman.ErrOutOfBits) {
			t.Errorf("payload cut to %d of %d bytes: got %v, want ErrOutOfBits", n, len(pkt.Payload), err)
		}
	}
	decoded := 0
	for bit := 0; bit < 8*len(pkt.Payload); bit++ {
		copy(dec.prevY, key)
		bad := *pkt
		bad.Payload = append([]byte(nil), pkt.Payload...)
		bad.Payload[bit/8] ^= 0x80 >> (bit % 8)
		if dec.decodeDelta(&bad) == nil {
			decoded++
		}
	}
	t.Logf("%d of %d single-bit flips still decode %d measurements", decoded, 8*len(pkt.Payload), dec.p.M)
}

// TestCodebookDecodeAllocatesNothing decodes a real delta frame's
// symbols: a successful Codebook.Decode, reader included, must not
// allocate.
func TestCodebookDecodeAllocatesNothing(t *testing.T) {
	dec, pkt := deltaFrame(t)
	cb := dec.p.Codebook
	allocs := testing.AllocsPerRun(50, func() {
		r := huffman.NewBitReader(pkt.Payload)
		for i := 0; i < dec.p.M; i++ {
			s, err := cb.Decode(r)
			if err != nil {
				t.Fatal(err)
			}
			if s == EscapeSymbol {
				if _, err := r.ReadBits(24); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a delta frame's %d symbols allocates %v times, want 0", dec.p.M, allocs)
	}
}
