package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the bucket count of a Histogram: bucket 0 collects
// non-positive observations; bucket b (1 ≤ b ≤ 64) collects values
// whose bit length is b, i.e. the range [2^(b−1), 2^b − 1]. Log-2
// bucketing keeps recording a single shift-free bits.Len64 plus one
// atomic add, with ≤ 2× relative quantile error — plenty for latency
// distributions spanning nanoseconds to seconds.
const NumBuckets = 65

// Histogram is a log-bucketed integer distribution. Observing is
// lock-free, allocation-free and integer-only; quantiles, means and
// bucket dumps are host-side reads.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the smallest value of bucket b (0 for bucket 0).
func BucketLow(b int) int64 {
	if b <= 0 {
		return 0
	}
	return int64(1) << uint(b-1)
}

// BucketHigh returns the largest value of bucket b.
func BucketHigh(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return math.MaxInt64
	}
	return int64(1)<<uint(b) - 1
}

// Observe records one value.
//
//csecg:hotpath
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Bucket returns the count of bucket b.
func (h *Histogram) Bucket(b int) int64 {
	if b < 0 || b >= NumBuckets {
		return 0
	}
	return h.buckets[b].Load()
}

// Quantiles estimates several quantiles in one pass over the buckets.
// qs must be sorted ascending in [0, 1]; the result aligns with qs.
// Each estimate interpolates linearly inside the containing log2
// bucket, so it lies within the bucket's [low, high] bounds — at most
// 2× away from the exact order statistic (the error-bound test pins
// this).
//
//csecg:host percentile/mean math runs on the host at export time
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	n := h.count.Load()
	if n == 0 {
		return out
	}
	max := h.max.Load()
	var counts [NumBuckets]int64
	for b := range counts {
		counts[b] = h.buckets[b].Load()
	}
	b, cum := 0, int64(0)
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		rank := int64(math.Ceil(q * float64(n)))
		if rank < 1 {
			rank = 1
		}
		for ; b < NumBuckets; b++ {
			c := counts[b]
			if c > 0 && cum+c >= rank {
				lo, hi := BucketLow(b), BucketHigh(b)
				if hi > max {
					hi = max // the tail bucket cannot exceed the observed max
				}
				if hi < lo {
					hi = lo
				}
				frac := float64(rank-cum) / float64(c)
				out[i] = lo + int64(frac*float64(hi-lo))
				break
			}
			cum += c
		}
		if b == NumBuckets {
			out[i] = max
		}
	}
	return out
}

// Summary condenses a histogram for reports.
type Summary struct {
	// Count and Sum aggregate the raw integer observations.
	Count, Sum int64
	// Max is the largest observation.
	Max int64
	// P50, P95 and P99 are interpolated quantiles in the observation's
	// unit (ticks for latency histograms).
	P50, P95, P99 int64
}

// Summarize computes the report summary.
//
//csecg:host percentile/mean math runs on the host at export time
func (h *Histogram) Summarize() Summary {
	qs := h.Quantiles(0.50, 0.95, 0.99)
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		P50:   qs[0],
		P95:   qs[1],
		P99:   qs[2],
	}
}
