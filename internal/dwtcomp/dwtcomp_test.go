package dwtcomp

import (
	"testing"

	"csecg/internal/ecg"
	"csecg/internal/metrics"
)

func window(t testing.TB) []int16 {
	t.Helper()
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	adc, err := rec.Channel256(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, 512)
	for i := range win {
		win[i] = adc[i+512] - ecg.ADCBaseline
	}
	return win
}

func TestNewEncoderValidation(t *testing.T) {
	cases := []struct{ n, order, levels, k int }{
		{500, 4, 5, 100}, // not a power of two
		{32, 4, 5, 10},   // too short
		{512, 4, 5, 0},   // bad K
		{512, 4, 5, 513}, // K > n
		{512, 4, 9, 100}, // too deep
		{512, 99, 5, 100},
	}
	for i, c := range cases {
		if _, err := NewEncoder(c.n, c.order, c.levels, c.k); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if _, err := NewEncoder(512, 4, 5, 128); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripQuality(t *testing.T) {
	enc, err := NewEncoder(512, 4, 5, 145) // ≈ CR 50 bit budget
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(512, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	win := window(t)
	data, err := enc.Encode(win)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(data), (hdrBits+enc.keepK*(posBits+valBits)+7)/8; got != want {
		t.Errorf("packet %d B, want %d", got, want)
	}
	back, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]float64, 512)
	reco := make([]float64, 512)
	for i := range win {
		orig[i] = float64(win[i])
		reco[i] = float64(back[i])
	}
	prdn, err := metrics.PRDN(orig, reco)
	if err != nil {
		t.Fatal(err)
	}
	// Transform coding at 145 coefficients on a clean window is strong:
	// expect diagnostic-quality reconstruction.
	if prdn > 6 {
		t.Errorf("DWT-thresholding PRDN %.2f, want < 6", prdn)
	}
}

func TestMoreCoefficientsImproveQuality(t *testing.T) {
	win := window(t)
	dec, _ := NewDecoder(512, 4, 5)
	prdnAt := func(k int) float64 {
		enc, err := NewEncoder(512, 4, 5, k)
		if err != nil {
			t.Fatal(err)
		}
		data, err := enc.Encode(win)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]float64, 512)
		reco := make([]float64, 512)
		for i := range win {
			orig[i] = float64(win[i])
			reco[i] = float64(back[i])
		}
		p, err := metrics.PRDN(orig, reco)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p32, p128, p400 := prdnAt(32), prdnAt(128), prdnAt(400)
	if !(p32 > p128 && p128 > p400) {
		t.Errorf("PRDN not improving with K: %v, %v, %v", p32, p128, p400)
	}
}

func TestEncodeValidatesLength(t *testing.T) {
	enc, _ := NewEncoder(512, 4, 5, 64)
	if _, err := enc.Encode(make([]int16, 7)); err == nil {
		t.Error("short window accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	dec, _ := NewDecoder(512, 4, 5)
	if _, err := dec.Decode(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := dec.Decode([]byte{0xFF, 0xFF, 0x0F}); err == nil {
		t.Error("absurd coefficient count accepted")
	}
	// Truncated mid-coefficient.
	enc, _ := NewEncoder(512, 4, 5, 64)
	data, err := enc.Encode(window(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(data[:len(data)/2]); err == nil {
		t.Error("truncated packet accepted")
	}
}

func TestKForBudget(t *testing.T) {
	// CR 50 on 512×12-bit windows: 3072-bit budget.
	k := KForBudget(3072)
	if k < 140 || k > 150 {
		t.Errorf("KForBudget(3072) = %d, want ≈145", k)
	}
	if KForBudget(0) != 1 {
		t.Error("degenerate budget should clamp to 1")
	}
}

func TestEncoderCyclesScale(t *testing.T) {
	e4, _ := NewEncoder(512, 4, 5, 128)
	e8, _ := NewEncoder(512, 8, 5, 128)
	if e8.EncoderCycles() <= e4.EncoderCycles() {
		t.Error("longer filter not more expensive")
	}
	if e4.EncoderCycles() <= 0 {
		t.Error("non-positive cycle estimate")
	}
}

func BenchmarkEncode512(b *testing.B) {
	enc, _ := NewEncoder(512, 4, 5, 145)
	win := window(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(win); err != nil {
			b.Fatal(err)
		}
	}
}
