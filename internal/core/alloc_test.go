package core

import (
	"math"
	"testing"

	"csecg/internal/metrics"
)

// The encoder's per-sample path must allocate nothing after
// construction — the firmware it models has only static buffers. The
// noalloc analyzer enforces this statically over the //csecg:hotpath
// functions; these tests back the static claim with the runtime
// allocator. testing.AllocsPerRun performs a warm-up call first, so
// one-time amortized growth (the bit writer's first window) does not
// count against the steady state.

func TestEncodeWindowSteadyStateZeroAllocs(t *testing.T) {
	enc, err := NewEncoder(Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, enc.Params().N)
	for i := range win {
		win[i] = int16(1024 + i%5)
	}
	// Consume the initial key frame so every measured call is the
	// steady-state delta path. The key-frame interval (64) exceeds the
	// run count, so no scheduled key frame lands inside the measurement.
	if _, err := enc.EncodeWindow(win); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(40, func() {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Kind != KindDelta {
			t.Fatalf("expected steady-state delta frame, got kind %d", pkt.Kind)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state EncodeWindow allocates %.2f times per call, want 0", avg)
	}
}

func TestEncodeWindowKeyFrameZeroAllocs(t *testing.T) {
	enc, err := NewEncoder(Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, enc.Params().N)
	for i := range win {
		win[i] = int16(1024 + i%5)
	}
	avg := testing.AllocsPerRun(20, func() {
		enc.ForceKeyFrame()
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Kind != KindKey {
			t.Fatalf("expected key frame, got kind %d", pkt.Kind)
		}
	})
	if avg != 0 {
		t.Errorf("key-frame EncodeWindow allocates %.2f times per call, want 0", avg)
	}
}

// TestWarmDecodePacketAllocatesOnlyItsResult pins the decoder side: a
// warm stream-cr50 window allocates exactly what DecodePacket hands
// out, the DecodeResult, its MV and its Samples. The solve runs in the
// decoder's workspace.
func TestWarmDecodePacketAllocatesOnlyItsResult(t *testing.T) {
	const runs = 20
	p := Params{Seed: 42, M: metrics.MForCR(50, WindowSize)}
	pkts := encodeStream(t, p, runs+3) // key frame, two warm-ups, runs
	dec, err := NewDecoder[float32](p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodePacket(pkts[0]); err != nil {
		t.Fatal(err)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs+1, func() {
		res, err := dec.DecodePacket(pkts[next])
		if err != nil {
			t.Fatal(err)
		}
		if pkts[next].Kind != KindDelta || res.StageIters != nil {
			t.Fatalf("window %d is not a warm delta decode", next)
		}
		next++
	})
	if allocs != 3 {
		t.Errorf("warm DecodePacket allocates %v times, want 3 (result, MV, Samples)", allocs)
	}
}

// TestDecodeResultsOutliveNextDecode holds every result of a stream,
// cold key frame included, and checks that later decodes leave the
// held MV, Samples and StageIters as they were returned.
func TestDecodeResultsOutliveNextDecode(t *testing.T) {
	p := Params{Seed: 42, M: metrics.MForCR(50, WindowSize)}
	pkts := encodeStream(t, p, 4)
	dec, err := NewDecoder[float32](p)
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		mv      []uint32
		samples []int16
		stages  []int
	}
	var held []*DecodeResult[float32]
	var snaps []snapshot
	for _, pkt := range pkts {
		res, err := dec.DecodePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		s := snapshot{samples: append([]int16(nil), res.Samples...), stages: append([]int(nil), res.StageIters...)}
		for _, v := range res.MV {
			s.mv = append(s.mv, math.Float32bits(v))
		}
		held, snaps = append(held, res), append(snaps, s)
	}
	if len(snaps[0].stages) < 2 {
		t.Fatalf("key frame ran %d continuation stages; want a continuation solve", len(snaps[0].stages))
	}
	for w, res := range held {
		s := snaps[w]
		for i, v := range res.MV {
			if math.Float32bits(v) != s.mv[i] {
				t.Fatalf("window %d: MV[%d] changed after later decodes", w, i)
			}
		}
		for i, v := range res.Samples {
			if v != s.samples[i] {
				t.Fatalf("window %d: Samples[%d] changed after later decodes", w, i)
			}
		}
		for i, v := range res.StageIters {
			if v != s.stages[i] {
				t.Fatalf("window %d: StageIters[%d] changed after later decodes", w, i)
			}
		}
	}
}

// encodeStream encodes the first windows of record 100 into packets
// that stay valid after the encoder moves on.
func encodeStream(t *testing.T, p Params, windows int) []*Packet {
	t.Helper()
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	src := testWindows(t, float64(windows*WindowSize)/FsMote)
	pkts := make([]*Packet, windows)
	for i := range pkts {
		pkt, err := enc.EncodeWindow(src[i])
		if err != nil {
			t.Fatal(err)
		}
		// EncodeWindow reuses its packet between calls.
		cp := *pkt
		cp.Payload = append([]byte(nil), pkt.Payload...)
		pkts[i] = &cp
	}
	return pkts
}
