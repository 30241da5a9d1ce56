package core

import (
	"bytes"
	"testing"
)

// encodeOneWindow runs a fresh encoder over a single constant-valued
// window and returns the packet bytes.
func encodeOneWindow(t *testing.T, fill int16) []byte {
	t.Helper()
	enc, err := NewEncoder(Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	window := make([]int16, enc.Params().N)
	for i := range window {
		window[i] = fill
	}
	pkt, err := enc.EncodeWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestEncodeWindowClampsADCRange reproduces the wraparound rangecheck
// flagged in EncodeWindow: an out-of-range sample of −32768 used to wrap
// the int16 centering subtraction (−32768 − ADCBaseline ≡ +31744) and
// corrupt the measurements. With the ADC clamp, any sample below 0
// encodes exactly like 0, and any sample above ADCMax exactly like
// ADCMax.
func TestEncodeWindowClampsADCRange(t *testing.T) {
	if got, want := encodeOneWindow(t, -32768), encodeOneWindow(t, 0); !bytes.Equal(got, want) {
		t.Error("window of −32768 encodes differently from window of 0: centering subtraction wrapped")
	}
	if got, want := encodeOneWindow(t, 32767), encodeOneWindow(t, ADCMax); !bytes.Equal(got, want) {
		t.Error("window of 32767 encodes differently from window of ADCMax")
	}
}

// TestPushSampleClampsADCRange checks the same clamp on the streaming
// path, where the wrap would have happened inside AddMeasureInt's
// accumulation instead.
func TestPushSampleClampsADCRange(t *testing.T) {
	encode := func(fill int16) []byte {
		enc, err := NewEncoder(Params{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		for i := 0; i < enc.Params().N; i++ {
			pkt, err := enc.PushSample(fill)
			if err != nil {
				t.Fatal(err)
			}
			if pkt != nil {
				blob, err = pkt.Marshal()
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if blob == nil {
			t.Fatal("no packet after a full window of samples")
		}
		return blob
	}
	if got, want := encode(-32768), encode(0); !bytes.Equal(got, want) {
		t.Error("streamed −32768 encodes differently from streamed 0")
	}
}

// TestRoundTHalfAwayFromZero pins the requantizer's rounding, including
// the largest float below one half: adding 0.5 to 0.49999997 rounds the
// float32 sum to 1.0, which a round-then-truncate would keep.
func TestRoundTHalfAwayFromZero(t *testing.T) {
	cases := []struct{ v, want float32 }{
		{0.49999997, 0}, {-0.49999997, 0},
		{1.4999999, 1}, {-1.4999999, -1},
		{2.5, 3}, {-2.5, -3},
		{0.5, 1}, {-0.5, -1},
		{0, 0}, {2047.4999, 2047}, {-2047.5, -2048},
	}
	for _, c := range cases {
		if got := roundT(c.v); got != c.want {
			t.Errorf("roundT(float32 %v) = %v, want %v", c.v, got, c.want)
		}
		if got := roundT(float64(c.v)); got != float64(c.want) {
			t.Errorf("roundT(float64 %v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := roundT(0.49999999999999994); got != 0 {
		t.Errorf("roundT(float64 0.49999999999999994) = %v, want 0", got)
	}
}
