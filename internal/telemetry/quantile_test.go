package telemetry

import (
	"sort"
	"testing"
)

// TestQuantilesErrorBound pins the estimator's guarantee: a log2-bucket
// interpolated quantile is always within the containing bucket, hence
// within 2× of the exact order statistic, for positive observations.
func TestQuantilesErrorBound(t *testing.T) {
	// Deterministic pseudo-random stream (xorshift64*), spanning six
	// orders of magnitude like a latency distribution.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() int64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := int64((x * 0x2545F4914F6CDD1D) >> 24)
		return v%1_000_000 + 1
	}
	var h Histogram
	vals := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := next()
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	qs := []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}
	est := h.Quantiles(qs...)
	prev := int64(-1)
	for i, q := range qs {
		rank := int(q * float64(len(vals)))
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		if est[i] < prev {
			t.Errorf("q=%.2f: estimates not monotone (%d after %d)", q, est[i], prev)
		}
		prev = est[i]
		// 2× relative error bound: the estimate stays inside the exact
		// value's log2 bucket, whose width is at most the lower bound.
		if est[i] > 2*exact || exact > 2*est[i] {
			t.Errorf("q=%.2f: estimate %d vs exact %d exceeds the 2x bucket bound", q, est[i], exact)
		}
	}
	if got := est[len(est)-1]; got != h.Max() {
		t.Errorf("q=1 estimate %d, want observed max %d", got, h.Max())
	}
}

// TestQuantilesEmpty covers the zero-observation path.
func TestQuantilesEmpty(t *testing.T) {
	var h Histogram
	for _, v := range h.Quantiles(0.5, 0.99) {
		if v != 0 {
			t.Errorf("empty histogram quantile = %d, want 0", v)
		}
	}
}
