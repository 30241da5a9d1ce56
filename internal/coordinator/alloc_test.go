package coordinator

import (
	"math"
	"testing"

	"csecg/internal/core"
	"csecg/internal/metrics"
)

// TestWarmDecodeAllocsIndependentOfIterations decodes the same delta
// packets on warm decoders whose solves are pinned to 10 and to 400
// iterations: the allocation count must not depend on the iteration
// count, so the whole FISTA loop of a real-time decode is free of heap
// traffic.
func TestWarmDecodeAllocsIndependentOfIterations(t *testing.T) {
	const runs = 10
	params := core.Params{Seed: 5, M: metrics.MForCR(50, core.WindowSize)}
	enc, err := core.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*core.Packet, runs+2) // key frame, warm-up, runs
	win := make([]int16, core.WindowSize)
	for i := range pkts {
		for j := range win {
			s := float64(i*core.WindowSize + j)
			win[j] = int16(1024 + 300*math.Exp(-math.Pow(math.Mod(s, 203)-100, 2)/20) + 40*math.Sin(s/31))
		}
		p, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		// EncodeWindow reuses its packet between calls.
		cp := *p
		cp.Payload = append([]byte(nil), p.Payload...)
		pkts[i] = &cp
	}
	allocs := func(iters int) float64 {
		dec, err := NewRealTimeDecoder(params, NEON)
		if err != nil {
			t.Fatal(err)
		}
		dec.dec.SolverOptions.MaxIter = iters
		dec.dec.SolverOptions.Tol = -1
		if _, err := dec.Decode(pkts[0]); err != nil {
			t.Fatal(err)
		}
		next := 1
		return testing.AllocsPerRun(runs, func() {
			pkt := pkts[next]
			next++
			if pkt.Kind != core.KindDelta {
				t.Fatalf("packet %d is kind %d, want a delta frame", pkt.Seq, pkt.Kind)
			}
			res, err := dec.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != iters {
				t.Fatalf("decode ran %d iterations, want %d", res.Iterations, iters)
			}
		})
	}
	short, long := allocs(10), allocs(400)
	if short != long {
		t.Errorf("warm decode allocates %v times at 10 iterations and %v at 400; the solver loop must not allocate", short, long)
	}
}
