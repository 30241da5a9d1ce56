package energy

import (
	"math"
	"testing"
	"time"
)

func TestAverageCurrent(t *testing.T) {
	b := Budget{BatteryMAh: 100, BaseCurrentMA: 5, RadioTxExtraMA: 40, CPUActiveExtraMA: 2}
	got := b.AverageCurrentMA(Load{RadioDuty: 0.1, CPUDuty: 0.5})
	want := 5 + 4 + 1.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AverageCurrentMA = %v, want %v", got, want)
	}
}

func TestLifetime(t *testing.T) {
	b := Budget{BatteryMAh: 100, BaseCurrentMA: 10}
	lt, err := b.Lifetime(Load{})
	if err != nil {
		t.Fatal(err)
	}
	if lt != 10*time.Hour {
		t.Errorf("Lifetime = %v, want 10h", lt)
	}
}

func TestValidation(t *testing.T) {
	if _, err := (Budget{}).Lifetime(Load{}); err == nil {
		t.Error("zero budget accepted")
	}
	b := DefaultBudget()
	if _, err := b.Lifetime(Load{RadioDuty: 1.5}); err == nil {
		t.Error("duty > 1 accepted")
	}
	if _, err := b.Lifetime(Load{CPUDuty: -0.1}); err == nil {
		t.Error("negative duty accepted")
	}
}

func TestLifetimeExtensionPaperOperatingPoint(t *testing.T) {
	// Paper: 12.9% lifetime extension at CR = 50 vs streaming raw.
	// Raw streaming: 768 B windows (512 samples × 12 bits) every 2 s at
	// ≈90 kbit/s with overhead → ≈70 ms airtime, no encoder CPU.
	// CS at CR=50 overall ≈72%: ≈190 B wire packets → ≈18 ms airtime,
	// ≈4.2% encoder CPU.
	b := DefaultBudget()
	raw := Load{RadioDuty: 0.0695 / 2, CPUDuty: 0}
	cs := Load{RadioDuty: 0.018 / 2, CPUDuty: 0.042}
	lr, err := b.Lifetime(raw)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := b.Lifetime(cs)
	if err != nil {
		t.Fatal(err)
	}
	ext := lc.Seconds()/lr.Seconds() - 1
	if ext < 0.08 || ext > 0.18 {
		t.Errorf("lifetime extension %.1f%%, paper reports 12.9%%", ext*100)
	}
	t.Logf("modeled lifetime extension: %.1f%%", ext*100)
}

func TestLifetimeMonotoneInRadioDuty(t *testing.T) {
	b := DefaultBudget()
	prev := time.Duration(math.MaxInt64)
	for duty := 0.0; duty <= 0.5; duty += 0.05 {
		lt, err := b.Lifetime(Load{RadioDuty: duty})
		if err != nil {
			t.Fatal(err)
		}
		if lt >= prev {
			t.Fatalf("lifetime not strictly decreasing at duty %v", duty)
		}
		prev = lt
	}
}

func TestLoadFromAirtime(t *testing.T) {
	l, err := LoadFromAirtime(20*time.Millisecond, 80*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.RadioDuty-0.01) > 1e-12 || math.Abs(l.CPUDuty-0.04) > 1e-12 {
		t.Errorf("LoadFromAirtime = %+v", l)
	}
	if _, err := LoadFromAirtime(time.Second, 0, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := LoadFromAirtime(3*time.Second, 0, 2); err == nil {
		t.Error("duty > 1 accepted")
	}
}

func TestDefaultBudgetSane(t *testing.T) {
	b := DefaultBudget()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Streaming-raw lifetime should land in the multi-day Holter range.
	lt, err := b.Lifetime(Load{RadioDuty: 0.035})
	if err != nil {
		t.Fatal(err)
	}
	if lt < 48*time.Hour || lt > 120*time.Hour {
		t.Errorf("raw-streaming lifetime %v outside the plausible 2-5 day range", lt)
	}
}
