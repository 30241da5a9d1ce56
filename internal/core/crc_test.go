package core

import (
	"strings"
	"testing"
)

// TestCRC16KnownAnswer pins the implementation to the published
// CRC-16/CCITT-FALSE check value so a table or shift-direction bug
// cannot silently redefine the wire format.
func TestCRC16KnownAnswer(t *testing.T) {
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16(check string) = %#x, want 0x29B1", got)
	}
	if got := crc16(nil); got != 0xFFFF {
		t.Fatalf("crc16(empty) = %#x, want init value 0xFFFF", got)
	}
}

// TestCRC16DetectsBursts verifies the CRC's burst guarantee over a
// representative frame: every contiguous error burst of up to 16 bits
// must change the checksum.
func TestCRC16DetectsBursts(t *testing.T) {
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i*37 + 11)
	}
	ref := crc16(frame)
	for start := 0; start < len(frame)*8-16; start++ {
		for width := 1; width <= 16; width++ {
			mut := append([]byte(nil), frame...)
			// Flip the first and last bit of the burst (a burst is any
			// error pattern confined to `width` consecutive bits whose
			// endpoints are flipped).
			mut[start/8] ^= 1 << (start % 8)
			if end := start + width - 1; end != start {
				mut[end/8] ^= 1 << (end % 8)
			}
			if crc16(mut) == ref {
				t.Fatalf("burst at bit %d width %d undetected", start, width)
			}
		}
	}
}

// TestCorruptedPacketRejected pins the acceptance criterion that a
// deliberately corrupted frame never reaches the decoder: each single
// corrupted byte outside the length field must fail UnmarshalPacket
// with a CRC mismatch.
func TestCorruptedPacketRejected(t *testing.T) {
	p := &Packet{Seq: 42, Kind: KindDelta, NumSymbols: 128, Payload: []byte{9, 8, 7, 6, 5}}
	blob, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalPacket(blob); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for pos := 1; pos < len(blob); pos++ {
		if pos == 8 || pos == 9 {
			continue // length field: moves the CRC window itself
		}
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0xA5
		_, _, err := UnmarshalPacket(mut)
		if err == nil {
			t.Fatalf("corrupted byte %d accepted", pos)
		}
		if pos != 1 && !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("corrupted byte %d rejected with %v, want CRC mismatch", pos, err)
		}
	}
}
