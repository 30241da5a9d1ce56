package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// LeafSumNs sums the depth-1 tiling leaves (rung-change markers are
// zero-duration and cost nothing).
func (w *WindowTrace) LeafSumNs() int64 {
	var sum int64
	for i := 1; i < w.nspans; i++ {
		if w.spans[i].Parent == 0 {
			sum += w.spans[i].DurNs
		}
	}
	return sum
}

// buildRetransmittedDegradedTrace assembles the span tree of a window
// that lost its first transmission, was NACK-retransmitted twice, and
// decoded on a degraded rung — the anomalous shape the tail sampler
// must retain with exact parentage.
func buildRetransmittedDegradedTrace(c *CausalTracer) *WindowTrace {
	const (
		acqEnd = 4_000_000_000 // window 1 acquired over [2 s, 4 s)
		ms     = 1_000_000
	)
	w := c.Begin(1)
	w.Root(acqEnd)
	w.Leaf(StageCSSample, acqEnd, 2*ms)
	w.Leaf(StageDiff, acqEnd+2*ms, 1*ms)
	w.Leaf(StageHuffman, acqEnd+3*ms, 1*ms)
	w.Leaf(StageTX, acqEnd+4*ms, 20*ms) // destroyed on the wire
	// First NACK round trip: wait, then the retransmit attempt.
	w.Leaf(StageRetransmitWait, acqEnd+24*ms, 1976*ms)
	w.AttemptLeaf(StageRetransmit, acqEnd+2000*ms, 20*ms, 1)
	// Second round: the first retransmit was lost too.
	w.Leaf(StageRetransmitWait, acqEnd+2020*ms, 1980*ms)
	w.AttemptLeaf(StageRetransmit, acqEnd+4000*ms, 20*ms, 2)
	w.Mark(FlagRetransmit)
	// Arrival, reorder hold, degraded solve with continuation children.
	w.Leaf(StageLinkTransit, acqEnd+4020*ms, 10*ms)
	w.Leaf(StageReassemble, acqEnd+4030*ms, 70*ms)
	si := w.SolverLeaf(SolverStageFISTA2, acqEnd+4100*ms, 800*ms, 1)
	w.Child(si, ContStageName(0), acqEnd+4100*ms, 500*ms)
	w.Child(si, ContStageName(1), acqEnd+4600*ms, 300*ms)
	w.MarkRungChange(acqEnd+4100*ms, 1)
	w.Leaf(StageReconstruct, acqEnd+4900*ms, 1*ms)
	w.Mark(FlagDegraded)
	return w
}

func TestSpanTreeGolden(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "record 100"})
	w := buildRetransmittedDegradedTrace(c)
	c.Finish(w, 1, w.LeafSumNs())

	kept := c.Retained()
	if len(kept) != 1 {
		t.Fatalf("retained %d traces, want 1 (anomalous flags set)", len(kept))
	}
	var buf bytes.Buffer
	if err := WriteTraceRecords(&buf, []TraceRecord{kept[0].Record("record 100")}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "span_tree.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span tree drifted from golden file.\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestSpanTreeShape(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "record 100"})
	w := buildRetransmittedDegradedTrace(c)
	latency := w.LeafSumNs()
	c.Finish(w, 1, latency)

	kept := c.Retained()
	if len(kept) != 1 {
		t.Fatalf("retained %d traces, want 1", len(kept))
	}
	tr := &kept[0]
	spans := tr.Spans()

	// The root carries the end-to-end latency and parents every leaf.
	if spans[0].Stage != StageWindow || spans[0].Parent != -1 {
		t.Fatalf("span 0 = %+v, want root", spans[0])
	}
	if spans[0].DurNs != latency {
		t.Errorf("root duration %d, want latency %d", spans[0].DurNs, latency)
	}

	// Exact parentage: every depth-1 leaf points at the root, and the
	// continuation children point at the solver leaf.
	solverIdx := -1
	var attempts []int
	for i, s := range spans {
		if i == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(s.Stage, "stage/"):
			if s.Parent != solverIdx {
				t.Errorf("continuation %s parent %d, want solver leaf %d", s.Stage, s.Parent, solverIdx)
			}
		default:
			if s.Parent != 0 {
				t.Errorf("leaf %s parent %d, want 0", s.Stage, s.Parent)
			}
		}
		if s.Stage == SolverStageFISTA2 {
			solverIdx = i
			if s.Rung != 1 {
				t.Errorf("solver leaf rung %d, want 1", s.Rung)
			}
		}
		if s.Stage == StageRetransmit {
			attempts = append(attempts, s.Attempt)
		}
	}
	if solverIdx < 0 {
		t.Error("solver leaf missing")
	}
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Errorf("retransmit attempts %v, want [1 2]", attempts)
	}

	// Rung-change marker present and zero-duration.
	foundRungChange := false
	for _, s := range spans {
		if s.Stage == StageRungChange {
			foundRungChange = true
			if s.DurNs != 0 {
				t.Errorf("rung-change span carries duration %d", s.DurNs)
			}
			if s.Rung != 1 {
				t.Errorf("rung-change rung %d, want 1", s.Rung)
			}
		}
	}
	if !foundRungChange {
		t.Error("rung-change span missing")
	}

	// Flags: retransmitted + degraded + rung-change.
	for _, want := range []uint32{FlagRetransmit, FlagDegraded, FlagRungChange} {
		if tr.Flags&want == 0 {
			t.Errorf("flag %#x not set (flags %#x)", want, tr.Flags)
		}
	}

	// Tiling: depth-1 leaves sum to the recorded latency exactly, and
	// they cover [acqEnd, acqEnd+latency) gaplessly.
	if got := tr.LeafSumNs(); got != tr.LatencyNs {
		t.Errorf("leaf sum %d != latency %d", got, tr.LatencyNs)
	}
	frontier := spans[0].StartNs
	for i := 1; i < len(spans); i++ {
		s := spans[i]
		if s.Parent != 0 || s.Stage == StageRungChange {
			continue
		}
		if s.StartNs != frontier {
			t.Errorf("leaf %s starts at %d, want frontier %d (gap in tiling)", s.Stage, s.StartNs, frontier)
		}
		frontier = s.StartNs + s.DurNs
	}
	if frontier != spans[0].StartNs+latency {
		t.Errorf("tiling ends at %d, want %d", frontier, spans[0].StartNs+latency)
	}
}

// TestSpanCaptureZeroAlloc pins the entire capture path — Begin, every
// leaf recorder, flags, Finish with retention — at zero allocations per
// window. This is the hotpath contract csecg-vet noalloc also enforces
// statically.
func TestSpanCaptureZeroAlloc(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "record 100", RetainAll: true, RetainAnomalous: 4})
	var seq uint32
	avg := testing.AllocsPerRun(1000, func() {
		w := c.Begin(seq)
		w.Root(int64(seq) * 2_000_000_000)
		w.Leaf(StageCSSample, 0, 1)
		w.Leaf(StageDiff, 1, 1)
		w.Leaf(StageHuffman, 2, 1)
		w.Leaf(StageTX, 3, 1)
		w.Leaf(StageRetransmitWait, 4, 1)
		w.AttemptLeaf(StageRetransmit, 5, 1, 1)
		w.Leaf(StageLinkTransit, 6, 1)
		w.Leaf(StageReassemble, 7, 1)
		si := w.SolverLeaf(SolverStageFISTA2, 8, 2, 1)
		w.Child(si, ContStageName(0), 8, 1)
		w.Child(si, ContStageName(1), 9, 1)
		w.MarkRungChange(8, 1)
		w.Leaf(StageReconstruct, 10, 1)
		w.Mark(FlagDegraded)
		c.Finish(w, 1, w.LeafSumNs())
		seq++
	})
	if avg != 0 {
		t.Errorf("span capture allocates %.2f per window, want 0", avg)
	}
}

func TestTailSampling(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "s", TopK: 2, RetainAnomalous: 8})
	// 10 clean windows with increasing latency, one anomalous.
	for seq := uint32(0); seq < 10; seq++ {
		w := c.Begin(seq)
		w.Root(int64(seq) * 1000)
		lat := int64(seq+1) * 100
		w.Leaf(StageReassemble, int64(seq)*1000, lat)
		if seq == 3 {
			w.Mark(FlagBad)
		}
		c.Finish(w, 0, lat)
	}
	kept := c.Retained()
	// Expect: the anomalous seq 3 plus the top-2 latency (seq 8, 9).
	want := map[uint32]bool{3: true, 8: true, 9: true}
	if len(kept) != len(want) {
		t.Fatalf("retained %d traces, want %d", len(kept), len(want))
	}
	for _, w := range kept {
		if !want[w.Seq] {
			t.Errorf("retained unexpected seq %d", w.Seq)
		}
	}
}

func TestFinishDroppedShed(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "s"})
	w := c.Begin(5)
	w.Root(12_000_000_000)
	w.Leaf(StageTX, 12_000_000_000, 1000)
	c.FinishDropped(w, FlagShed)
	kept := c.Retained()
	if len(kept) != 1 || kept[0].Flags&FlagShed == 0 {
		t.Fatalf("shed window not retained with FlagShed: %+v", kept)
	}
	if kept[0].LatencyNs != 0 {
		t.Errorf("shed window carries latency %d, want 0", kept[0].LatencyNs)
	}
}

func TestTraceIDDerivation(t *testing.T) {
	seed := TraceSeed("record 100")
	if seed != TraceSeed("record 100") {
		t.Error("seed not deterministic")
	}
	if TraceSeed("record 101") == seed {
		t.Error("different labels must derive different seeds")
	}
	a, b := DeriveTraceID(seed, 1), DeriveTraceID(seed, 2)
	if a == b || a == 0 || b == 0 {
		t.Errorf("trace IDs must be distinct and nonzero: %x %x", a, b)
	}
	if s := TraceIDString(a); len(s) != 16 {
		t.Errorf("trace ID string %q, want 16 hex digits", s)
	}
	if TraceIDString(0) != "" {
		t.Error("zero trace ID must render empty")
	}
}

func TestTraceRecordsRoundTrip(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "record 100"})
	w := buildRetransmittedDegradedTrace(c)
	c.Finish(w, 1, w.LeafSumNs())
	recs := c.Records()
	var buf bytes.Buffer
	if err := WriteTraceRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip %d records, want %d", len(got), len(recs))
	}
	if got[0].TraceID != recs[0].TraceID || got[0].Seq != recs[0].Seq ||
		got[0].LatencyNs != recs[0].LatencyNs || len(got[0].Spans) != len(recs[0].Spans) {
		t.Errorf("round trip changed record:\ngot  %+v\nwant %+v", got[0], recs[0])
	}
}

func TestWriteStageSecondsExemplars(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "record 100"})
	w := buildRetransmittedDegradedTrace(c)
	c.Finish(w, 1, w.LeafSumNs())
	wantTrace := TraceIDString(c.TraceID(1))

	var buf bytes.Buffer
	if err := c.WriteStageSeconds(&buf, Label{Key: "session", Value: "record 100"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# TYPE csecg_window_stage_seconds histogram",
		`stage="` + SolverStageFISTA2 + `"`,
		`stage="` + StageRetransmit + `"`,
		`session="record 100"`,
		`le="+Inf"`,
		`# {trace_id="` + wantTrace + `"}`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("stage-seconds output missing %s\n%s", frag, out)
		}
	}
	// Continuation children must not leak into the stage histograms.
	if strings.Contains(out, `stage="stage/0"`) {
		t.Error("continuation sub-stage leaked into the stage histograms")
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	c := NewCausalTracer(CausalConfig{Label: "s"})
	w := c.Begin(0)
	w.Root(0)
	for i := 0; i < MaxSpans+5; i++ {
		w.Leaf(StageRetransmitWait, int64(i), 1)
	}
	if w.Dropped != 6 { // root + (MaxSpans-1) leaves fit; 6 spill
		t.Errorf("dropped %d spans, want 6", w.Dropped)
	}
}
