package telemetry

import (
	"io"
	"sync"
	"testing"
)

func TestCounterAddZeroAlloc(t *testing.T) {
	c := NewRegistry().Counter("x")
	if a := testing.AllocsPerRun(1000, func() { c.Add(3) }); a != 0 {
		t.Errorf("Counter.Add allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { c.Inc() }); a != 0 {
		t.Errorf("Counter.Inc allocates %.1f objects/op, want 0", a)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("x")
	var v int64
	if a := testing.AllocsPerRun(1000, func() { v++; h.Observe(v) }); a != 0 {
		t.Errorf("Histogram.Observe allocates %.1f objects/op, want 0", a)
	}
}

func TestGaugeSetZeroAlloc(t *testing.T) {
	g := NewRegistry().Gauge("x")
	var v int64
	if a := testing.AllocsPerRun(1000, func() { v++; g.Set(v) }); a != 0 {
		t.Errorf("Gauge.Set allocates %.1f objects/op, want 0", a)
	}
}

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(5)
	c.Inc()
	if c.Load() != 6 {
		t.Errorf("counter = %d, want 6", c.Load())
	}
	if reg.Counter("c") != c {
		t.Error("registry did not return the same counter")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Set(3)
	if g.Load() != 3 || g.Max() != 7 {
		t.Errorf("gauge load/max = %d/%d, want 3/7", g.Load(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket b holds [2^(b−1), 2^b − 1]; bucket 0 holds v ≤ 0.
	cases := []struct {
		v      int64
		bucket int
	}{{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count %d, want %d", h.Count(), len(cases))
	}
	if h.Max() != 1<<40 {
		t.Errorf("max %d, want 2^40", h.Max())
	}
	if h.Bucket(0) != 2 || h.Bucket(2) != 2 || h.Bucket(3) != 2 {
		t.Error("bucket counts wrong")
	}
	if BucketLow(3) != 4 || BucketHigh(3) != 7 {
		t.Errorf("bucket 3 bounds [%d, %d], want [4, 7]", BucketLow(3), BucketHigh(3))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// Log buckets guarantee ≤ 2× relative error; the tail is clamped to
	// the exact observed max.
	q := h.Quantiles(0, 0.5, 1)
	if q[0] < 1 || q[0] > 2 {
		t.Errorf("p0 = %d, want ≈1", q[0])
	}
	if q[1] < 25 || q[1] > 100 {
		t.Errorf("p50 = %d, want within 2× of 50", q[1])
	}
	if q[2] != 100 {
		t.Errorf("p100 = %d, want the observed max 100", q[2])
	}
	s := h.Summarize()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Errorf("summary %+v has wrong count/sum/max", s)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Errorf("summary quantiles not monotone: %+v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantiles(0.5)[0] != 0 || h.Max() != 0 {
		t.Error("empty histogram must read zero")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta")
	reg.Counter("alpha")
	reg.Histogram("late")
	reg.Histogram("early")
	names := reg.CounterNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("counter names %v, want sorted", names)
	}
	hn := reg.HistogramNames()
	if len(hn) != 2 || hn[0] != "early" {
		t.Errorf("histogram names %v, want sorted", hn)
	}
}

// TestRegistryConcurrentRecording hammers one registry from goroutines
// playing the mote and coordinator roles while a reader exports
// concurrently — the shape RunStream produces when both ends share a
// session registry. Run under -race (CI does).
func TestRegistryConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	const (
		writers = 4
		perG    = 5000
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Odd goroutines record mote-side, even coordinator-side;
			// both hit the shared window counter like the real pipeline.
			c := reg.Counter("windows_total")
			var h *Histogram
			if id%2 == 0 {
				h = reg.Histogram("mote_encode_cycles")
			} else {
				h = reg.Histogram("coordinator_iterations")
			}
			gauge := reg.Gauge("buffer_depth")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i))
				gauge.Set(int64(i % 9))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := WritePrometheus(io.Discard, reg); err != nil {
				t.Errorf("concurrent export: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := reg.Counter("windows_total").Load(); got != writers*perG {
		t.Errorf("counter %d, want %d", got, writers*perG)
	}
	total := reg.Histogram("mote_encode_cycles").Count() +
		reg.Histogram("coordinator_iterations").Count()
	if total != writers*perG {
		t.Errorf("histogram observations %d, want %d", total, writers*perG)
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(100)
	if c.Now() != 100 {
		t.Errorf("start %d, want 100", c.Now())
	}
}
