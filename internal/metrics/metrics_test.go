package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"csecg/internal/rng"
)

func TestCR(t *testing.T) {
	if got := CR(1000, 500); got != 50 {
		t.Errorf("CR = %v, want 50", got)
	}
	if got := CR(1000, 1000); got != 0 {
		t.Errorf("CR = %v, want 0", got)
	}
	if got := CR(0, 10); got != 0 {
		t.Errorf("CR with zero orig = %v, want 0", got)
	}
	if got := CR(1000, 1100); got != -10 {
		t.Errorf("expansion CR = %v, want -10", got)
	}
}

func TestMeasurementCRAndInverse(t *testing.T) {
	// measurementCR is the CS-stage ratio 100·(1 − M/N) that MForCR
	// inverts.
	measurementCR := func(m, n int) float64 { return 100 * (1 - float64(m)/float64(n)) }
	if got := measurementCR(MForCR(50, 512), 512); got != 50 {
		t.Errorf("measurementCR(MForCR(50)) = %v, want 50", got)
	}
	if got := MForCR(50, 512); got != 256 {
		t.Errorf("MForCR(50) = %v, want 256", got)
	}
	if got := MForCR(100, 512); got != 1 {
		t.Errorf("MForCR(100) = %v, want clamp 1", got)
	}
	if got := MForCR(0, 512); got != 512 {
		t.Errorf("MForCR(0) = %v, want 512", got)
	}
	// Round trip within rounding for the sweep range.
	for cr := 30.0; cr <= 90; cr += 2.5 {
		m := MForCR(cr, 512)
		if got := measurementCR(m, 512); math.Abs(got-cr) > 0.1 {
			t.Errorf("round trip CR %v -> M %d -> %v", cr, m, got)
		}
	}
}

func TestPRDKnown(t *testing.T) {
	x := []float64{3, 4}
	xr := []float64{3, 4}
	got, err := PRD(x, xr)
	if err != nil || got != 0 {
		t.Errorf("identical PRD = %v, %v", got, err)
	}
	// Error vector norm 5 over reference norm 5 → 100%.
	got, err = PRD([]float64{3, 4}, []float64{0, 0})
	if err != nil || math.Abs(got-100) > 1e-12 {
		t.Errorf("PRD = %v, want 100", got)
	}
}

func TestPRDErrors(t *testing.T) {
	if _, err := PRD([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PRD([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("zero reference accepted")
	}
}

func TestPRDNRemovesOffset(t *testing.T) {
	// A large DC offset must not flatter PRDN as it does PRD.
	n := 100
	x := make([]float64, n)
	xr := make([]float64, n)
	for i := range x {
		x[i] = 1024 + math.Sin(float64(i)*0.3)
		xr[i] = 1024 + math.Sin(float64(i)*0.3)*0.9
	}
	prd, err := PRD(x, xr)
	if err != nil {
		t.Fatal(err)
	}
	prdn, err := PRDN(x, xr)
	if err != nil {
		t.Fatal(err)
	}
	if prdn < prd*10 {
		t.Errorf("PRDN %v should be much larger than offset-flattered PRD %v", prdn, prd)
	}
	if math.Abs(prdn-10) > 0.5 {
		t.Errorf("PRDN = %v, want ≈10 (10%% amplitude error)", prdn)
	}
}

func TestPRDNConstantSignal(t *testing.T) {
	if _, err := PRDN([]float64{5, 5, 5}, []float64{5, 5, 4}); err == nil {
		t.Error("constant reference accepted")
	}
}

func TestSNRRoundTrip(t *testing.T) {
	// PRD 1% → 40 dB; PRD 10% → 20 dB (the paper's formula).
	if got := SNR(1); math.Abs(got-40) > 1e-12 {
		t.Errorf("SNR(1%%) = %v, want 40", got)
	}
	if got := SNR(10); math.Abs(got-20) > 1e-12 {
		t.Errorf("SNR(10%%) = %v, want 20", got)
	}
	if !math.IsInf(SNR(0), 1) {
		t.Error("SNR(0) should be +Inf")
	}
	// Seeded fractional PRDs over six decades, plus the decade
	// boundaries and their neighbours.
	g := rng.New(112)
	var prds []float64
	for _, b := range []float64{1e-3, 0.01, 0.1, 1, 10, 100, 1000} {
		prds = append(prds, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	for range 300 {
		prds = append(prds, math.Pow(10, 6*g.Float64()-3), 100*g.Float64()+1e-3)
	}
	for _, prd := range prds {
		// The inverse of SNR's −20·log10(PRD/100).
		if got := 100 * math.Pow(10, -SNR(prd)/20); math.Abs(got-prd) > 1e-9*prd {
			t.Fatalf("SNR(%v) inverts to %v", prd, got)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		prdn float64
		want Quality
	}{
		{0.5, VeryGood}, {1.99, VeryGood}, {2, Good}, {8.99, Good}, {9, Degraded}, {50, Degraded},
	}
	for _, c := range cases {
		if got := Classify(c.prdn); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.prdn, got, c.want)
		}
	}
	if VeryGood.String() != "very good" || Good.String() != "good" || Degraded.String() != "degraded" {
		t.Error("Quality.String() labels wrong")
	}
}

func TestPRDScaleInvariance(t *testing.T) {
	// PRD is scale-invariant: scaling both signals leaves it unchanged.
	f := func(seed int64) bool {
		s := uint64(seed) | 1
		x := make([]float64, 64)
		xr := make([]float64, 64)
		for i := range x {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			x[i] = float64(int64(s%2001)-1000) / 100
			xr[i] = x[i] + float64(int64((s>>20)%101)-50)/1000
		}
		a, err1 := PRD(x, xr)
		for i := range x {
			x[i] *= 7.5
			xr[i] *= 7.5
		}
		b, err2 := PRD(x, xr)
		if err1 != nil || err2 != nil {
			return true // degenerate draw (zero signal); skip
		}
		return math.Abs(a-b) < 1e-9*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
