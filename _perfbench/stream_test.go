package main

import (
	"strings"
	"testing"
)

// TestTracedDecodeReproducesReference runs short traced phases of both
// stream workloads: the traced decode must match RealTimeDecoder.Decode
// on every window, and a second pass must reproduce the first.
func TestTracedDecodeReproducesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes real windows")
	}
	for _, k := range []streamKind{
		{name: "stream-cr50", cr: 50, strata: strataCR50[:1], passWindows: 3},
		{name: "lossy-cr80", cr: 80, lossy: true, strata: strataCR80[:1], passWindows: 8},
	} {
		streams, err := pickStreams(7, k.strata, k.passWindows)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := k.runPhase(streams, 0, 2*k.passWindows, newSpanRecorder())
		if err != nil {
			t.Fatal(err)
		}
		if ph.checkErr != nil {
			t.Errorf("%s: %v", k.name, ph.checkErr)
		}
		if ph.released == 0 || ph.replayed == 0 {
			t.Errorf("%s: %d windows released, %d checked against the first pass; want both above 0", k.name, ph.released, ph.replayed)
		}
		if n := summarize(ph.tr.spans).n[spanDecode]; n == 0 {
			t.Errorf("%s: no traced decodes recorded", k.name)
		}
	}
}

// TestTracedDecodeMismatchFails checks that a traced decode that drifts
// from the reference fails the run.
func TestTracedDecodeMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes real windows")
	}
	k := streamKind{name: "stream-cr50", cr: 50, strata: strataCR50[:1], passWindows: 2}
	streams, err := pickStreams(7, k.strata, k.passWindows)
	if err != nil {
		t.Fatal(err)
	}
	tr := newSpanRecorder()
	ph := &streamPhase{k: k, meter: meter{tr: tr}}
	s := &session{in: streams[0], first: make([]uint64, k.passWindows)}
	ph.sessions = []*session{s}
	if err := ph.step(s); err != nil {
		t.Fatal(err)
	}
	if ph.checkErr != nil || s.st.tap.err != nil {
		t.Fatalf("first window: %v %v", ph.checkErr, s.st.tap.err)
	}
	s.st.tap.traced.lip *= 1.01 // a different step size changes the iterates
	if err := ph.step(s); err != nil {
		t.Fatal(err)
	}
	if ph.checkErr == nil || !strings.Contains(ph.checkErr.Error(), "differs from the reference") {
		t.Errorf("check error = %v, want a traced/reference mismatch", ph.checkErr)
	}
}
