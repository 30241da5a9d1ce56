package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// acc accumulates the calls made to one function: how many, and their
// total duration.
type acc struct{ ns, n int64 }

func (a *acc) add(ns int64) {
	a.ns += ns
	a.n++
}

// meanUs is the mean call duration in microseconds (0 with no calls).
func (a acc) meanUs() float64 { return ratio(float64(a.ns)/1e3, float64(a.n)) }

// ratio is a/b, or 0 when b is 0: a layer a workload does not exercise
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle of xs, the mean of the two middle samples
// for an even count. It sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// maxTailPerMille caps the tail percentile at p99: beyond it a run of
// hundreds of thousands of 30 µs calls reports host scheduling and GC
// pauses rather than the system. The stream workloads' few hundred
// samples stay below the cap.
const maxTailPerMille = 990

// tail returns the highest percentile of xs, up to p99, that has
// at least minBeyond samples beyond it, and the sample at that
// percentile. With xs sorted ascending, the sample of 1-based rank r
// sits at percentile 100·r/n and has n−r samples beyond it, so r is
// n−minBeyond unless the cap lowers it. It sorts xs.
func tail(xs []float64, minBeyond int) (pct, value float64, err error) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, fmt.Errorf("%d latency samples, need more than %d for a tail", n, minBeyond)
	}
	sort.Float64s(xs)
	rank := min(n-minBeyond, n*maxTailPerMille/1000)
	return 100 * float64(rank) / float64(n), xs[rank-1], nil
}

// medianSeconds runs f reps times and returns the median duration in
// seconds. A collection before each run keeps garbage from earlier runs
// out of the timing.
func medianSeconds(reps int, f func() error) (float64, error) {
	times := make([]float64, reps)
	for i := range times {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// runtimeCounters reads the Go runtime's cumulative heap allocation and
// GC cycle counts without stopping the world, so the benchmark can take
// them around every call into the system.
var runtimeCounters = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func heapAllocs() uint64 {
	rtmetrics.Read(runtimeCounters[:1])
	return runtimeCounters[0].Value.Uint64()
}

func gcCycles() uint64 {
	rtmetrics.Read(runtimeCounters[1:])
	return runtimeCounters[1].Value.Uint64()
}
