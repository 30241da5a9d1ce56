package main

import (
	"math/rand"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n            int
		wantPct      float64
		wantValue    float64
		wantNoResult bool
	}{
		{n: 10, wantNoResult: true},
		{n: 11, wantPct: 100.0 / 11, wantValue: 1},
		{n: 100, wantPct: 90, wantValue: 90},
		{n: 400, wantPct: 97.5, wantValue: 390},
		{n: 1000, wantPct: 99, wantValue: 990},
		// Past 1000 samples the p99 cap leaves more than ten beyond.
		{n: 50000, wantPct: 99, wantValue: 49500},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		pct, v, err := tail(xs, 10)
		if tc.wantNoResult {
			if err == nil {
				t.Errorf("n=%d: tail = p%v %v, want an error", tc.n, pct, v)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if pct != tc.wantPct || v != tc.wantValue {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", tc.n, pct, v, tc.wantPct, tc.wantValue)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want at least 10", tc.n, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 samples = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 samples = %v, want 2.5", got)
	}
}
