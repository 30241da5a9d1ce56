package csecg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"csecg/internal/telemetry"
)

// lossyNACKConfig is a burst-lossy NACK session: retransmit waits,
// reorder holds and slot-late recovery all land on the critical path.
func lossyNACKConfig() StreamConfig {
	cfg := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.Burst = &BurstConfig{PGoodBad: 0.06, PBadGood: 0.50}
	cfg.Link.Seed = 0xC4A7
	cfg.Transport = TransportConfig{NACK: true}
	return cfg
}

// chromeEvent is the subset of a trace_event the stream tests inspect.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

// ns converts a trace_event microsecond value back to nanoseconds.
func ns(us float64) int64 { return int64(math.Round(us * 1000)) }

// lossyTrace caches the one lossy RetainAll session both Chrome-trace
// tests read; each 60 s lossy session costs close to a minute under the
// race detector.
var lossyTrace struct {
	once   sync.Once
	rep    *StreamReport
	recs   []SpanTraceRecord
	events []chromeEvent
	err    error
}

// streamChromeTrace runs the lossy NACK session with a RetainAll span
// tracer and renders the retained trees as a Chrome trace.
func streamChromeTrace(t *testing.T) (*StreamReport, []SpanTraceRecord, []chromeEvent) {
	t.Helper()
	lt := &lossyTrace
	lt.once.Do(func() { lt.rep, lt.recs, lt.events, lt.err = renderLossyTrace() })
	if lt.err != nil {
		t.Fatal(lt.err)
	}
	return lt.rep, lt.recs, lt.events
}

func renderLossyTrace() (*StreamReport, []SpanTraceRecord, []chromeEvent, error) {
	spans := NewSpanTracer(SpanTracerConfig{Label: "record 100", RetainAnomalous: 4096, RetainAll: true})
	cfg := lossyNACKConfig()
	cfg.Spans = spans
	cfg.Metrics = NewMetrics()
	cfg.Clock = telemetry.NewManualClock(0)
	rep, err := RunStream(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if rep.Transport.Gaps == 0 {
		return nil, nil, nil, errors.New("lossy session produced no gaps; nothing retransmitted")
	}
	if n := spans.RetainDropped(); n != 0 {
		return nil, nil, nil, fmt.Errorf("span tracer dropped %d trees", n)
	}
	recs := spans.Records()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		return nil, nil, nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, nil, nil, fmt.Errorf("Chrome trace is not valid JSON: %w", err)
	}
	return rep, recs, doc.TraceEvents, nil
}

// TestStreamTraceCoversEveryStage checks that the Chrome trace rendered
// from a RetainAll session shows every decoded window: its window slice,
// its solve on the decode lane, the flow arrow ending there, and the
// solver counter tracks.
func TestStreamTraceCoversEveryStage(t *testing.T) {
	rep, recs, events := streamChromeTrace(t)
	decoded := map[string]bool{}
	for _, r := range recs {
		if r.LatencyNs > 0 {
			decoded[r.TraceID] = true
		}
	}
	if len(decoded) != rep.Decoded {
		t.Fatalf("%d decoded span trees for %d decoded windows", len(decoded), rep.Decoded)
	}
	windows, flowEnds := map[string]bool{}, map[string]bool{}
	solves := map[int64]bool{} // by seq
	counters := map[string]int{}
	for _, e := range events {
		switch {
		case e.Ph == "b" && e.Name == "window":
			windows[e.ID] = true
		case e.Ph == "f":
			flowEnds[e.ID] = true
		case e.Ph == "C":
			counters[e.Name]++
		case (e.Ph == "X" || e.Ph == "B") && strings.Contains(e.Name, "/"):
			if seq, ok := e.Args["seq"].(float64); ok {
				solves[int64(seq)] = true
			}
		}
	}
	for _, r := range recs {
		if !decoded[r.TraceID] {
			continue
		}
		if !windows[r.TraceID] || !flowEnds[r.TraceID] {
			t.Errorf("window %d (%s): window slice %v, flow end %v", r.Seq, r.TraceID, windows[r.TraceID], flowEnds[r.TraceID])
		}
		if !solves[int64(r.Seq)] {
			t.Errorf("window %d has no solver slice", r.Seq)
		}
	}
	for _, name := range []string{"fista objective", "fista residual", "fista step"} {
		if counters[name] < rep.Decoded {
			t.Errorf("counter track %q has %d points for %d decoded windows", name, counters[name], rep.Decoded)
		}
	}
	// Report summaries must be populated from the same session.
	if got := rep.SolverIterations.Count; got != int64(rep.Decoded) {
		t.Errorf("solver iteration summary has %d observations, want %d", got, rep.Decoded)
	}
}

// TestStreamTraceSpansDisjointPerTrack pins the modeled-timeline
// invariant: slices sharing one (pid, tid) lane never overlap, so the
// trace renders as a clean lane per pipeline resource — also when loss,
// retransmission and reorder holds interleave windows.
func TestStreamTraceSpansDisjointPerTrack(t *testing.T) {
	_, _, events := streamChromeTrace(t)
	type lane struct{ pid, tid int64 }
	type slice struct {
		name       string
		start, end int64
	}
	lanes := map[lane][]slice{}
	open := map[lane][]chromeEvent{}
	for _, e := range events {
		k := lane{e.PID, e.TID}
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Fatalf("slice %q has negative duration %v", e.Name, e.Dur)
			}
			lanes[k] = append(lanes[k], slice{e.Name, ns(e.TS), ns(e.TS + e.Dur)})
		case "B":
			open[k] = append(open[k], e)
		case "E":
			st := open[k]
			if len(st) == 0 {
				t.Fatalf("E %q on pid %d tid %d closes nothing", e.Name, e.PID, e.TID)
			}
			b := st[len(st)-1]
			open[k] = st[:len(st)-1]
			if len(open[k]) == 0 { // only outermost slices share the lane
				lanes[k] = append(lanes[k], slice{b.Name, ns(b.TS), ns(e.TS)})
			}
		}
	}
	for k, ss := range lanes {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		for i := 1; i < len(ss); i++ {
			if ss[i].start < ss[i-1].end {
				t.Fatalf("slice %q at %d ns overlaps %q (ends %d) on pid %d tid %d",
					ss[i].name, ss[i].start, ss[i-1].name, ss[i-1].end, k.pid, k.tid)
			}
		}
	}
}

// TestStreamTracingLeavesPipelineUnchanged runs one lossy NACK session
// untraced, with default span tracing, and with RetainAll tracing
// (which also turns on the solver's iteration trace): the reports must
// be identical.
func TestStreamTracingLeavesPipelineUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("three 60 s lossy sessions; determinism needs no race instrumentation")
	}
	run := func(spans *SpanTracer) *StreamReport {
		cfg := lossyNACKConfig()
		cfg.Spans = spans
		rep, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(nil)
	if base.Transport.Gaps == 0 {
		t.Fatal("lossy session produced no gaps; nothing retransmitted")
	}
	for name, spans := range map[string]*SpanTracer{
		"default":   NewSpanTracer(SpanTracerConfig{Label: "record 100"}),
		"retainall": NewSpanTracer(SpanTracerConfig{Label: "record 100", RetainAnomalous: 4096, RetainAll: true}),
	} {
		rep := run(spans)
		if rep.Decoded != base.Decoded ||
			math.Float64bits(rep.MeanPRDN) != math.Float64bits(base.MeanPRDN) ||
			math.Float64bits(rep.MeanEstPRDN) != math.Float64bits(base.MeanEstPRDN) ||
			math.Float64bits(rep.MeanIterations) != math.Float64bits(base.MeanIterations) ||
			rep.DecodeLatency != base.DecodeLatency {
			t.Errorf("%s tracing changed the session:\ngot  decoded %d PRDN %v est %v iters %v latency %+v\nwant decoded %d PRDN %v est %v iters %v latency %+v",
				name, rep.Decoded, rep.MeanPRDN, rep.MeanEstPRDN, rep.MeanIterations, rep.DecodeLatency,
				base.Decoded, base.MeanPRDN, base.MeanEstPRDN, base.MeanIterations, base.DecodeLatency)
		}
	}
}

// TestStreamDecodeLatencyPerWindow pins the per-window recovery-latency
// accounting. A clean session recovers every window within its 2-second
// real-time budget; a bursty NACK session recovers gapped windows whole
// slots late — visible in DecodeLatency.Max, invisible to the session
// mean MeanDecodeTime.
func TestStreamDecodeLatencyPerWindow(t *testing.T) {
	base := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
	}

	clean, err := RunStream(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.DecodeLatency.Count != int64(clean.Decoded) {
		t.Fatalf("clean: %d latency observations for %d decoded windows",
			clean.DecodeLatency.Count, clean.Decoded)
	}
	budget := int64(2 * time.Second)
	if clean.DecodeLatency.Max > budget {
		t.Errorf("clean session worst recovery latency %v exceeds the 2 s window period",
			time.Duration(clean.DecodeLatency.Max))
	}

	lossy := base
	lossy.Link = DefaultLinkConfig()
	lossy.Link.Burst = &BurstConfig{PGoodBad: 0.06, PBadGood: 0.50}
	lossy.Link.BitFlipProb = 0.0002
	lossy.Link.Seed = 0xC4A7
	lossy.Transport = TransportConfig{NACK: true}
	rep, err := RunStream(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transport.Gaps == 0 {
		t.Fatal("lossy session produced no gaps; channel config too mild to exercise recovery")
	}
	if rep.DecodeLatency.Count != int64(rep.Decoded) {
		t.Fatalf("lossy: %d latency observations for %d decoded windows",
			rep.DecodeLatency.Count, rep.Decoded)
	}
	// Windows recovered via NACK arrive at least one slot after their
	// acquisition, so the per-window tail must exceed the clean bound...
	if rep.DecodeLatency.Max <= budget {
		t.Errorf("lossy worst recovery latency %v, want > %v (gap recovery spans slots)",
			time.Duration(rep.DecodeLatency.Max), time.Duration(budget))
	}
	if rep.DecodeLatency.Max <= clean.DecodeLatency.Max {
		t.Errorf("lossy tail %v not above clean tail %v",
			time.Duration(rep.DecodeLatency.Max), time.Duration(clean.DecodeLatency.Max))
	}
	// ...while the session-mean decode time stays comfortably sub-second,
	// which is exactly why the mean alone cannot express recovery
	// latency.
	if rep.MeanDecodeTime >= time.Second {
		t.Errorf("mean decode time %v, want < 1 s", rep.MeanDecodeTime)
	}
}

// TestStreamSharedRegistryAcrossSessions checks that callers can pool
// several sessions into one registry, the csecg-bench -metrics shape,
// while each report's distribution summaries count its own windows.
func TestStreamSharedRegistryAcrossSessions(t *testing.T) {
	reg := NewMetrics()
	var windows int64
	for _, id := range []string{"100", "101"} {
		rep, err := RunStream(StreamConfig{
			RecordID: id,
			Seconds:  8,
			Params:   Params{Seed: 0x33, M: MForCR(50, WindowSize)},
			Mode:     ModeNEON,
			Metrics:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		windows += int64(rep.Windows)
		if rep.DecodeLatency.Count != int64(rep.Decoded) || rep.SolverIterations.Count != int64(rep.Decoded) {
			t.Errorf("session %s: DecodeLatency.Count %d, SolverIterations.Count %d, want Decoded %d",
				id, rep.DecodeLatency.Count, rep.SolverIterations.Count, rep.Decoded)
		}
	}
	if got := reg.Counter("mote_windows_total").Load(); got != windows {
		t.Errorf("pooled mote_windows_total = %d, want %d", got, windows)
	}
	if reg.Histogram("stream_decode_latency_ns").Count() == 0 {
		t.Error("pooled registry missing decode-latency observations")
	}
}

// TestStreamReportsCRCRejections pins the ingest integrity wiring: on a
// bit-flipping channel the receiver's CRC — not the link model —
// rejects corrupt frames, and the count surfaces in the report and the
// telemetry registry.
func TestStreamReportsCRCRejections(t *testing.T) {
	reg := NewMetrics()
	cfg := StreamConfig{
		RecordID: "100",
		Seconds:  60,
		Params:   Params{Seed: 0x7A4, M: MForCR(50, WindowSize), KeyFrameInterval: 8},
		Mode:     ModeNEON,
		Metrics:  reg,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.BitFlipProb = 0.001
	cfg.Link.Seed = 0xBADC0DE
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCRejected == 0 {
		t.Fatal("bit-flipping channel produced no CRC rejections; corruption bypassed ingest")
	}
	if rep.CRCRejected != rep.Transport.Rejected {
		t.Fatalf("CRCRejected %d != Transport.Rejected %d", rep.CRCRejected, rep.Transport.Rejected)
	}
	if got := reg.Counter("transport_crc_rejected_total").Load(); got != int64(rep.CRCRejected) {
		t.Fatalf("transport_crc_rejected_total = %d, want %d", got, rep.CRCRejected)
	}
	// Rejected frames are losses: the session still recovers and decodes.
	if rep.Decoded == 0 {
		t.Fatal("nothing decoded under corruption")
	}
}

// streamSpanDigest pins the span JSONL and the headline report figures
// of the cached lossy NACK session (FNV-64a): a change to the session
// loop's timeline, its receiver call sequence or its decodes moves it.
const streamSpanDigest = 0x583901bcb6cd8b4a

func TestStreamSpanDigest(t *testing.T) {
	rep, recs, _ := streamChromeTrace(t)
	h := fnv.New64a()
	if err := WriteSpanTraceJSONL(h, recs); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%d %d %d %d %d %d %v %v %v %v %v %+v %+v %+v %+v",
		rep.Windows, rep.Lost, rep.Decoded, rep.BadWindows, rep.CRCRejected, rep.Retransmits,
		math.Float64bits(rep.MeanPRDN), math.Float64bits(rep.MeanEstPRDN), math.Float64bits(rep.WireCR),
		rep.AirtimePerWindow, rep.LifetimeCS, rep.LinkStats, rep.ControlStats, rep.DecodeLatency, *rep.Display)
	if got := h.Sum64(); got != streamSpanDigest {
		t.Errorf("lossy NACK session digest %016x over %d span trees, want %016x", got, len(recs), uint64(streamSpanDigest))
	}
}
