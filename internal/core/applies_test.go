package core

import (
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/solver"
)

// TestDecodeOperatorApplies pins how many times DecodePacket applies
// A = ΦΨ and Aᵀ per window of a seed-42 CR 50 stream. Each FISTA
// iteration applies both once. On top of that come one ApplyT for the
// λ default's Aᵀy (continuation reads its λ₀ from the same vector),
// one Apply for the final objective of each solve or continuation
// stage, and one Apply for the decoder's residual, which recomputes the
// final objective's A·α. So a warm window costs Iterations+2 applies
// and Iterations+1 adjoints, and the 6-stage cold key frame
// Iterations+7 and Iterations+1.
func TestDecodeOperatorApplies(t *testing.T) {
	p := Params{Seed: 42, M: metrics.MForCR(50, WindowSize)}
	pkts := encodeStream(t, p, 4)
	dec, err := NewDecoder[float32](p)
	if err != nil {
		t.Fatal(err)
	}
	var applies, adjoints int
	a := dec.a
	dec.a = linalg.Op[float32]{
		InDim:  a.InDim,
		OutDim: a.OutDim,
		Apply:  func(dst, x []float32) { applies++; a.Apply(dst, x) },
		ApplyT: func(dst, y []float32) { adjoints++; a.ApplyT(dst, y) },
	}
	dec.ws = solver.NewWorkspace(dec.a)
	for i, pkt := range pkts {
		applies, adjoints = 0, 0
		res, err := dec.DecodePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		extra := 2
		if i == 0 {
			if pkt.Kind != KindKey || len(res.StageIters) != 6 {
				t.Fatalf("window 0 is kind %d with stages %v, want a 6-stage cold key frame", pkt.Kind, res.StageIters)
			}
			extra = 7
		} else if pkt.Kind != KindDelta || res.StageIters != nil {
			t.Fatalf("window %d is not a warm delta decode", i)
		}
		if applies != res.Iterations+extra || adjoints != res.Iterations+1 {
			t.Errorf("window %d: %d iterations, %d applies and %d adjoints; want %d and %d",
				i, res.Iterations, applies, adjoints, res.Iterations+extra, res.Iterations+1)
		}
	}
}
