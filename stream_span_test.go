package csecg

import (
	"testing"

	"csecg/internal/telemetry"
)

// TestStreamSpansTileLatency is the PR's acceptance property: for every
// traced window, the depth-1 span durations must sum to the end-to-end
// decode latency within 1% — on a lossy NACK session, so retransmit
// waits and slot-late recovery are on the critical path and the gap
// leaves have to account for them.
func TestStreamSpansTileLatency(t *testing.T) {
	spans := NewSpanTracer(SpanTracerConfig{
		Label:           "record 100",
		RetainAnomalous: 4096,
		RetainAll:       true,
	})
	cfg := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
		Spans:    spans,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.Burst = &BurstConfig{PGoodBad: 0.06, PBadGood: 0.50}
	cfg.Link.Seed = 0xC4A7
	cfg.Transport = TransportConfig{NACK: true}
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transport.Gaps == 0 {
		t.Fatal("lossy session produced no gaps; nothing retransmitted")
	}

	kept := spans.Retained()
	if len(kept) != rep.Decoded {
		t.Fatalf("retained %d traces for %d decoded windows (RetainAll)", len(kept), rep.Decoded)
	}
	retransmitted := 0
	for i := range kept {
		w := &kept[i]
		if w.Flags&telemetry.FlagShed != 0 {
			continue
		}
		if w.LatencyNs <= 0 {
			t.Fatalf("trace %s (seq %d) has latency %d", telemetry.TraceIDString(w.TraceID), w.Seq, w.LatencyNs)
		}
		var sum int64 // the depth-1 tiling leaves
		for _, sp := range w.Spans()[1:] {
			if sp.Parent == 0 {
				sum += sp.DurNs
			}
		}
		gap := sum - w.LatencyNs
		if gap < 0 {
			gap = -gap
		}
		if float64(gap) > 0.01*float64(w.LatencyNs) {
			t.Errorf("seq %d: span sum %d diverges from latency %d by %.2f%%",
				w.Seq, sum, w.LatencyNs, 100*float64(gap)/float64(w.LatencyNs))
		}
		hasRetx := false
		for _, s := range w.Spans() {
			if s.Stage == telemetry.StageRetransmit {
				hasRetx = true
				if s.Attempt < 1 {
					t.Errorf("seq %d: retransmit span with attempt %d", w.Seq, s.Attempt)
				}
			}
		}
		if hasRetx {
			retransmitted++
			if w.Flags&telemetry.FlagRetransmit == 0 {
				t.Errorf("seq %d: retransmit spans present but FlagRetransmit unset", w.Seq)
			}
		}
	}
	if retransmitted == 0 {
		t.Error("no retained trace carries a retransmit span despite transport gaps")
	}
}

// TestStreamSpanTailSampling checks the production sampling mode: a
// clean session retains only the top-k latency reservoir, while a lossy
// session additionally keeps every anomalous window's full tree.
func TestStreamSpanTailSampling(t *testing.T) {
	clean := NewSpanTracer(SpanTracerConfig{Label: "record 100", TopK: 4})
	rep, err := RunStream(StreamConfig{
		RecordID: "100",
		Seconds:  30,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
		Spans:    clean,
	})
	if err != nil {
		t.Fatal(err)
	}
	kept := clean.Retained()
	unflagged := 0
	for _, w := range kept {
		if w.Flags == 0 {
			unflagged++
		}
	}
	if unflagged == 0 || unflagged > 4 {
		t.Errorf("retained %d unflagged traces, want 1..4 (top-k reservoir)", unflagged)
	}
	if len(kept) >= rep.Decoded {
		t.Errorf("tail sampling retained %d of %d windows; expected a strict subset", len(kept), rep.Decoded)
	}

	lossy := NewSpanTracer(SpanTracerConfig{Label: "record 100", TopK: 4})
	cfg := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
		Spans:    lossy,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.Burst = &BurstConfig{PGoodBad: 0.06, PBadGood: 0.50}
	cfg.Link.Seed = 0xC4A7
	cfg.Transport = TransportConfig{NACK: true}
	if _, err := RunStream(cfg); err != nil {
		t.Fatal(err)
	}
	anomalous := 0
	for _, w := range lossy.Retained() {
		if w.Flags != 0 {
			anomalous++
		}
	}
	if anomalous == 0 {
		t.Error("lossy session retained no anomalous traces")
	}
}
