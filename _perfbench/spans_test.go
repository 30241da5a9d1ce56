package main

import (
	"testing"
	"time"

	"csecg/internal/linalg"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// 0: a decode from 0 to 100 with three children.
		{start: 0, end: 100, parent: -1, kind: spanDecode},
		// 1: huffman, 10..20.
		{start: 10, end: 20, parent: 0, kind: spanHuffman},
		// 2: fista, 20..90, with two operator applies.
		{start: 20, end: 90, parent: 0, kind: spanFISTA},
		{start: 30, end: 40, parent: 2, kind: spanPhiApply},
		{start: 40, end: 65, parent: 2, kind: spanPsiSynth},
		// 5: a child that overlaps its predecessor and runs past its
		// parent covers only the part not yet covered and inside the
		// parent: 90..100.
		{start: 80, end: 105, parent: 0, kind: spanEstimate},
	}
	want := []int64{100 - 10 - 70 - 10, 10, 70 - 10 - 25, 10, 25, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}

	sum := summarize(spans)
	if sum.total[spanFISTA] != 70 || sum.self[spanFISTA] != 35 || sum.n[spanFISTA] != 1 {
		t.Errorf("fista totals = %d total, %d self, %d spans; want 70, 35, 1",
			sum.total[spanFISTA], sum.self[spanFISTA], sum.n[spanFISTA])
	}
	if sum.self[spanFISTA]+sum.total[spanPhiApply]+sum.total[spanPsiSynth] != sum.total[spanFISTA] {
		t.Error("solver self time plus operator time does not add up to the solver span")
	}
	if got := sum.meanNs(spanHuffman); got != 10 {
		t.Errorf("mean huffman span = %v ns, want 10", got)
	}
	if got := sum.meanNs(spanScrape); got != 0 {
		t.Errorf("mean of a kind with no spans = %v, want 0", got)
	}
}

func TestRecorderNestsWrappedOperators(t *testing.T) {
	r := newSpanRecorder()
	op := r.wrapOp(linalg.Op[float32]{
		InDim: 2, OutDim: 2,
		Apply:  func(dst, x []float32) { copy(dst, x); time.Sleep(time.Millisecond) },
		ApplyT: func(dst, y []float32) { copy(dst, y) },
	}, spanPhiApply, spanPhiApplyT)
	top := r.begin(spanFISTA)
	buf := make([]float32, 2)
	op.Apply(buf, []float32{1, 2})
	op.ApplyT(buf, buf)
	r.end(top)
	if r.open != -1 {
		t.Fatalf("open span after closing the top = %d, want -1", r.open)
	}
	if len(r.spans) != 3 || r.spans[1].parent != top || r.spans[2].parent != top {
		t.Fatalf("spans = %+v, want two operator spans inside the fista span", r.spans)
	}
	if r.spans[1].kind != spanPhiApply || r.spans[2].kind != spanPhiApplyT {
		t.Errorf("operator span kinds = %v, %v", r.spans[1].kind, r.spans[2].kind)
	}
	self := selfTimes(r.spans)
	if want := r.spans[0].end - r.spans[0].start - (r.spans[1].end - r.spans[1].start) - (r.spans[2].end - r.spans[2].start); self[0] != want {
		t.Errorf("fista self time = %d, want %d", self[0], want)
	}
	if r.spans[1].end-r.spans[1].start < int64(time.Millisecond) {
		t.Errorf("the Apply span lasted %d ns, shorter than the call", r.spans[1].end-r.spans[1].start)
	}
}
