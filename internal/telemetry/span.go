package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Causal span tracing (DESIGN.md §14): every window carries one trace
// ID from sample-push to quality scoring, and its lifecycle decomposes
// into a tree of spans whose depth-1 leaves tile the end-to-end decode
// latency exactly — per-stage durations sum to the recorded latency, so
// critical-path attribution is arithmetic, not guesswork. Capture is
// allocation-free on the hotpath: the tracer owns a fixed ring of
// preallocated window slots and fixed-capacity span arrays; tail
// sampling copies full trees out only for anomalous windows (SLO-bad,
// degraded, deadline-cut, retransmitted, rung-changed, shed, CRC-hit
// slots) plus a top-k latency reservoir.

// Causal span stage names of the window lifecycle. Gap stages make the
// tiling exact: whenever pipeline stations idle between productive
// stages, the wait itself becomes a leaf, so nothing on the critical
// path hides between spans.
const (
	// StageWindow is the root span of a window's trace: acquisition end
	// to reconstruction available — its duration is the decode latency.
	StageWindow = "window"
	// StageEncodeWait is the mote-side stall when the previous window's
	// encode/transmit (or retransmit service) is still holding the CPU
	// past this window's acquisition end.
	StageEncodeWait = "encode-wait"
	// StageCSSample is the sparse-binary CS measurement (the paper's
	// 82 ms stage) including the rounding shift.
	StageCSSample = "cs-sample"
	// StageDiff is the inter-packet difference stage (zero-length on
	// key frames).
	StageDiff = "diff"
	// StageHuffman is the entropy-coding stage (zero-length on key
	// frames).
	StageHuffman = "huffman"
	// StageTX is packet framing plus radio airtime.
	StageTX = "tx"
	// StageRetransmitWait is the gap between a destroyed transmission
	// and the NACK-driven retransmit leaving the mote's ring.
	StageRetransmitWait = "retransmit-wait"
	// StageRetransmit is one retransmission's airtime; Span.Attempt
	// numbers the attempts of the NACK ladder.
	StageRetransmit = "retransmit"
	// StageLinkTransit is time in flight or held by the channel's
	// reorder model between transmit end and coordinator arrival.
	StageLinkTransit = "link-transit"
	// StageReassemble is the coordinator-side wait between arrival and
	// decode start: reorder-buffer hold, admission-queue deferral and
	// the serialized decode core finishing earlier windows.
	StageReassemble = "reassemble"
	// StageReconstruct is the inverse transform and requantization that
	// hands samples to the display.
	StageReconstruct = "reconstruct"
	// StageRungChange is a zero-duration marker leaf recorded when the
	// degradation rung changed between the previous decode and this one;
	// Span.Rung carries the new rung.
	StageRungChange = "rung-change"
)

// Solver stages of the degradation ladder, named algorithm/iter-divisor
// — the coordinator's Rung.SolverStage returns the matching name, and a
// cross-package test pins the two lists together.
const (
	SolverStageFISTA1 = "fista/1"
	SolverStageFISTA2 = "fista/2"
	SolverStageFISTA4 = "fista/4"
)

// contStageNames are the names of FISTA continuation sub-stage spans
// (children of the solver leaf, excluded from stage histograms).
var contStageNames = [8]string{
	"stage/0", "stage/1", "stage/2", "stage/3",
	"stage/4", "stage/5", "stage/6", "stage/7",
}

// ContStageName returns the constant name of continuation stage i
// (clamped), without allocating.
//
//csecg:hotpath
func ContStageName(i int) string {
	if i < 0 {
		i = 0
	}
	if i >= len(contStageNames) {
		i = len(contStageNames) - 1
	}
	return contStageNames[i]
}

// SpanStages is the closed set of depth-1 leaf stages rolled into the
// csecg_window_stage_seconds histograms, in pipeline order.
func SpanStages() []string {
	return []string{
		StageEncodeWait, StageCSSample, StageDiff, StageHuffman, StageTX,
		StageRetransmitWait, StageRetransmit, StageLinkTransit,
		StageReassemble,
		SolverStageFISTA1, SolverStageFISTA2, SolverStageFISTA4,
		StageReconstruct,
	}
}

// StageSecondsMetric is the per-stage latency-contribution histogram
// served with exemplar links (metric → trace ID → bundle).
const StageSecondsMetric = "csecg_window_stage_seconds"

// FlowWindow names the Chrome-trace flow arrow that stitches one
// window's causal chain across the mote, link and coordinator tracks;
// the flow's id is the window's trace ID.
const FlowWindow = "window-flow"

// Anomaly flags of a window trace; any set flag makes the full span
// tree eligible for tail-sampling retention.
const (
	// FlagBad marks a window past the quality SLO's "good" boundary.
	FlagBad uint32 = 1 << iota
	// FlagDegraded marks a reduced-quality release (ladder off nominal
	// or deadline-cut solve).
	FlagDegraded
	// FlagDeadline marks a solve stopped by the soft deadline.
	FlagDeadline
	// FlagRetransmit marks a window that needed at least one NACK-driven
	// retransmission.
	FlagRetransmit
	// FlagRungChange marks the first decode after a ladder move.
	FlagRungChange
	// FlagShed marks a window dropped by the bounded admission queue;
	// its trace ends at the transport stages and carries no latency.
	FlagShed
	// FlagCRC marks a window whose pipeline interval saw at least one
	// CRC-rejected frame (frame-level rejects carry no trustworthy
	// sequence number, so attribution is to the interval, not the frame).
	FlagCRC
)

// flagNames renders the flag bits in declaration order.
var flagNames = []struct {
	bit  uint32
	name string
}{
	{FlagBad, "bad"},
	{FlagDegraded, "degraded"},
	{FlagDeadline, "deadline"},
	{FlagRetransmit, "retransmit"},
	{FlagRungChange, "rung-change"},
	{FlagShed, "shed"},
	{FlagCRC, "crc"},
}

// TraceSeed derives a session's trace-ID seed from its label (FNV-64a),
// so mote, coordinator, flight recorder and replay compute identical
// window trace IDs from the label alone.
func TraceSeed(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// DeriveTraceID maps (seed, window sequence) to the window's trace ID
// via a splitmix64 step. IDs are never zero — zero means "untraced".
//
//csecg:hotpath
func DeriveTraceID(seed uint64, seq uint32) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(uint64(seq)+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// TraceIDString renders a trace ID the way /sessions, exemplars and
// trace JSONL spell it (16 hex digits; "" for untraced).
func TraceIDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// MaxIterPoints bounds the downsampled solver iterations one window
// trace carries for the Chrome counter tracks.
const MaxIterPoints = 64

// IterPoint is one downsampled solver iteration, placed on the modeled
// timeline inside the solver span.
type IterPoint struct {
	AtNs      int64   `json:"at_ns"`
	Objective float64 `json:"objective"`
	Residual  float64 `json:"residual"`
	Step      float64 `json:"step"`
}

// MaxSpans bounds one window's span tree. A window that exhausts the
// budget (deep retransmit ladders) keeps its earliest spans and counts
// the overflow in Dropped — the tree stays honest about truncation.
const MaxSpans = 32

// Span is one node of a window's causal tree. Parent indexes the
// owning WindowTrace's span array (-1 for the root); depth-1 children
// of the root are the tiling leaves whose durations sum to the window's
// end-to-end latency.
type Span struct {
	Stage   string
	Parent  int
	StartNs int64
	DurNs   int64
	// Attempt numbers retransmission attempts (0 for the first
	// transmission).
	Attempt int
	// Rung is the degradation rung of solver and rung-change spans;
	// -1 elsewhere.
	Rung int
}

// WindowTrace is one window's causal span tree. Instances live in the
// CausalTracer's preallocated ring; retained copies are value copies
// (the span array is inline), so capture never allocates.
type WindowTrace struct {
	TraceID   uint64
	Seq       uint32
	Rung      int
	Flags     uint32
	LatencyNs int64
	// Dropped counts spans discarded past MaxSpans.
	Dropped int

	used     bool
	nspans   int
	frontier int64
	spans    [MaxSpans]Span
	niter    int
	iter     [MaxIterPoints]IterPoint
}

// add appends one span, enforcing the fixed capacity.
//
//csecg:hotpath
func (w *WindowTrace) add(s Span) int {
	if w.nspans >= MaxSpans {
		w.Dropped++
		return -1
	}
	i := w.nspans
	w.spans[i] = s
	w.nspans++
	if s.Parent == 0 && i > 0 {
		if end := s.StartNs + s.DurNs; end > w.frontier {
			w.frontier = end
		}
	}
	return i
}

// Root opens the window's root span at the acquisition end; its
// duration is set to the decode latency when the trace finishes.
//
//csecg:hotpath
func (w *WindowTrace) Root(startNs int64) {
	w.nspans = 0
	w.niter = 0
	w.Dropped = 0
	w.frontier = startNs
	w.add(Span{Stage: StageWindow, Parent: -1, StartNs: startNs, Rung: -1})
}

// Leaf records one depth-1 tiling span.
//
//csecg:hotpath
func (w *WindowTrace) Leaf(stage string, startNs, durNs int64) int {
	return w.add(Span{Stage: stage, Parent: 0, StartNs: startNs, DurNs: durNs, Rung: -1})
}

// AttemptLeaf records a retransmission leaf with its ladder attempt.
//
//csecg:hotpath
func (w *WindowTrace) AttemptLeaf(stage string, startNs, durNs int64, attempt int) int {
	return w.add(Span{Stage: stage, Parent: 0, StartNs: startNs, DurNs: durNs, Attempt: attempt, Rung: -1})
}

// SolverLeaf records the solve leaf tagged with its degradation rung.
//
//csecg:hotpath
func (w *WindowTrace) SolverLeaf(stage string, startNs, durNs int64, rung int) int {
	return w.add(Span{Stage: stage, Parent: 0, StartNs: startNs, DurNs: durNs, Rung: rung})
}

// Child records a sub-span under parent (continuation sub-stages);
// children are excluded from the tiling sum and stage histograms.
//
//csecg:hotpath
func (w *WindowTrace) Child(parent int, stage string, startNs, durNs int64) int {
	if parent < 0 {
		return -1
	}
	return w.add(Span{Stage: stage, Parent: parent, StartNs: startNs, DurNs: durNs, Rung: -1})
}

// Iteration records one downsampled solver iteration; points past
// MaxIterPoints are ignored.
//
//csecg:hotpath
func (w *WindowTrace) Iteration(p IterPoint) {
	if w.niter < MaxIterPoints {
		w.iter[w.niter] = p
		w.niter++
	}
}

// Mark sets anomaly flags on the trace.
//
//csecg:hotpath
func (w *WindowTrace) Mark(flags uint32) { w.Flags |= flags }

// MarkRungChange records the zero-duration ladder-move marker and flags
// the trace anomalous.
//
//csecg:hotpath
func (w *WindowTrace) MarkRungChange(atNs int64, rung int) {
	w.Flags |= FlagRungChange
	w.add(Span{Stage: StageRungChange, Parent: 0, StartNs: atNs, Rung: rung})
}

// FrontierNs is the end of the last depth-1 leaf (the root start before
// any leaf exists) — the point the next leaf must start at for the
// tiling to stay gapless.
//
//csecg:hotpath
func (w *WindowTrace) FrontierNs() int64 { return w.frontier }

// Spans returns the recorded spans (valid until the ring slot is
// reused).
func (w *WindowTrace) Spans() []Span { return w.spans[:w.nspans] }

// exemplar is the latest trace exemplar of one histogram bucket. The
// pair is written with two independent atomics — a torn read across a
// concurrent scrape can mix two exemplars of the same bucket, which is
// still a valid exemplar-quality sample.
type exemplar struct {
	trace atomic.Uint64
	valNs atomic.Int64
}

// CausalConfig sizes a CausalTracer.
type CausalConfig struct {
	// Label names the session; the trace-ID seed derives from it.
	Label string
	// Ring is the live window-slot count (default 64); it must exceed
	// the transport's reorder window plus the NACK ladder's backoff so
	// retransmit spans land in the still-open trace.
	Ring int
	// RetainAnomalous caps retained anomalous trees (default 128).
	RetainAnomalous int
	// TopK sizes the highest-latency reservoir kept even when nothing
	// was anomalous (default 8).
	TopK int
	// RetainAll keeps every finished tree (bounded by RetainAnomalous)
	// — the harness/CI mode behind exhaustive tiling validation.
	RetainAll bool
}

// CausalTracer captures hierarchical window span trees on a
// preallocated ring, tail-samples anomalous trees, and aggregates
// depth-1 leaves into per-stage latency histograms with trace
// exemplars. Capture methods (Begin/Lookup/Finish and the WindowTrace
// recorders) are allocation-free and belong to the single streaming
// goroutine; the histogram/exemplar side may be scraped concurrently.
type CausalTracer struct {
	label string
	seed  uint64

	ring []WindowTrace

	retained      []WindowTrace
	retainedN     int
	retainDropped int64
	topk          []WindowTrace
	topkN         int
	retainAll     bool

	stageNames []string
	stageIdx   map[string]int
	stageHists []*Histogram
	exemplars  []*[NumBuckets]exemplar
}

// NewCausalTracer builds a tracer with every slot, reservoir and stage
// series preallocated, so streaming never allocates.
func NewCausalTracer(cfg CausalConfig) *CausalTracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 64
	}
	if cfg.RetainAnomalous <= 0 {
		cfg.RetainAnomalous = 128
	}
	if cfg.TopK < 0 {
		cfg.TopK = 0
	}
	if cfg.TopK == 0 && !cfg.RetainAll {
		cfg.TopK = 8
	}
	names := SpanStages()
	c := &CausalTracer{
		label:      cfg.Label,
		seed:       TraceSeed(cfg.Label),
		ring:       make([]WindowTrace, cfg.Ring),
		retained:   make([]WindowTrace, cfg.RetainAnomalous),
		topk:       make([]WindowTrace, cfg.TopK),
		retainAll:  cfg.RetainAll,
		stageNames: names,
		stageIdx:   make(map[string]int, len(names)),
		stageHists: make([]*Histogram, len(names)),
		exemplars:  make([]*[NumBuckets]exemplar, len(names)),
	}
	for i, n := range names {
		c.stageIdx[n] = i
		c.stageHists[i] = &Histogram{}
		c.exemplars[i] = &[NumBuckets]exemplar{}
	}
	return c
}

// RetainsAll reports whether every finished tree is kept (the mode
// that also turns on the solver's per-iteration counter points).
func (c *CausalTracer) RetainsAll() bool { return c.retainAll }

// Seed returns the session's trace-ID seed — hand it to the receiver
// and flight recorder so every plane computes identical IDs.
func (c *CausalTracer) Seed() uint64 { return c.seed }

// TraceID returns window seq's trace ID.
//
//csecg:hotpath
func (c *CausalTracer) TraceID(seq uint32) uint64 { return DeriveTraceID(c.seed, seq) }

// Begin claims (and resets) the ring slot for window seq and returns
// its trace.
//
//csecg:hotpath
func (c *CausalTracer) Begin(seq uint32) *WindowTrace {
	w := &c.ring[int(seq)%len(c.ring)]
	w.TraceID = DeriveTraceID(c.seed, seq)
	w.Seq = seq
	w.Rung = 0
	w.Flags = 0
	w.LatencyNs = 0
	w.Dropped = 0
	w.used = true
	w.nspans = 0
	w.niter = 0
	w.frontier = 0
	return w
}

// Lookup returns the open trace of window seq, or nil when the slot was
// reused or the trace already finished.
//
//csecg:hotpath
func (c *CausalTracer) Lookup(seq uint32) *WindowTrace {
	w := &c.ring[int(seq)%len(c.ring)]
	if !w.used || w.Seq != seq {
		return nil
	}
	return w
}

// Finish closes window seq's trace: the root duration becomes the
// end-to-end latency, depth-1 leaves roll into the stage histograms
// with this trace as the bucket exemplar, and the tail sampler decides
// retention (anomalous flags, RetainAll, or the top-k reservoir).
//
//csecg:hotpath
func (c *CausalTracer) Finish(w *WindowTrace, rung int, latencyNs int64) {
	w.Rung = rung
	w.LatencyNs = latencyNs
	if w.nspans > 0 {
		w.spans[0].DurNs = latencyNs
	}
	for i := 1; i < w.nspans; i++ {
		s := &w.spans[i]
		if s.Parent != 0 {
			continue
		}
		idx, ok := c.stageIdx[s.Stage]
		if !ok {
			continue
		}
		c.stageHists[idx].Observe(s.DurNs)
		e := &c.exemplars[idx][bucketOf(s.DurNs)]
		e.trace.Store(w.TraceID)
		e.valNs.Store(s.DurNs)
	}
	w.used = false
	if c.retainAll || w.Flags != 0 {
		c.retain(w)
		return
	}
	c.offerTopK(w)
}

// FinishDropped closes the trace of a window that will never decode
// (shed by the admission queue): no latency, always retained.
//
//csecg:hotpath
func (c *CausalTracer) FinishDropped(w *WindowTrace, flags uint32) {
	w.Flags |= flags
	w.LatencyNs = 0
	w.used = false
	c.retain(w)
}

//csecg:hotpath
func (c *CausalTracer) retain(w *WindowTrace) {
	if c.retainedN >= len(c.retained) {
		c.retainDropped++
		return
	}
	c.retained[c.retainedN] = *w
	c.retainedN++
}

//csecg:hotpath
func (c *CausalTracer) offerTopK(w *WindowTrace) {
	if len(c.topk) == 0 {
		return
	}
	if c.topkN < len(c.topk) {
		c.topk[c.topkN] = *w
		c.topkN++
		return
	}
	min := 0
	for i := 1; i < c.topkN; i++ {
		if c.topk[i].LatencyNs < c.topk[min].LatencyNs {
			min = i
		}
	}
	if w.LatencyNs > c.topk[min].LatencyNs {
		c.topk[min] = *w
	}
}

// RetainDropped counts trees lost to the retention cap.
func (c *CausalTracer) RetainDropped() int64 { return c.retainDropped }

// Retained returns the tail-sampled trees — anomalous retentions merged
// with the top-k latency reservoir, deduplicated, in sequence order.
// Call after streaming ends; the copies are independent of the ring.
func (c *CausalTracer) Retained() []WindowTrace {
	seen := make(map[uint64]bool, c.retainedN+c.topkN)
	out := make([]WindowTrace, 0, c.retainedN+c.topkN)
	for i := 0; i < c.retainedN; i++ {
		seen[c.retained[i].TraceID] = true
		out = append(out, c.retained[i])
	}
	for i := 0; i < c.topkN; i++ {
		if !seen[c.topk[i].TraceID] {
			out = append(out, c.topk[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SpanRecord is one span in the JSONL trace format.
type SpanRecord struct {
	Stage   string `json:"stage"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attempt int    `json:"attempt,omitempty"`
	Rung    int    `json:"rung"`
}

// TraceRecord is one window's span tree in the JSONL trace format —
// the interchange between csecg-bench/RunStream and csecg-triage.
type TraceRecord struct {
	TraceID      string       `json:"trace_id"`
	Session      string       `json:"session,omitempty"`
	Seq          uint32       `json:"seq"`
	Rung         int          `json:"rung"`
	LatencyNs    int64        `json:"latency_ns"`
	Flags        []string     `json:"flags,omitempty"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
	// Iter holds the downsampled solver iterations behind the Chrome
	// counter tracks (RetainAll captures only).
	Iter []IterPoint `json:"iter,omitempty"`
}

// Record converts the trace for JSONL export.
func (w *WindowTrace) Record(session string) TraceRecord {
	r := TraceRecord{
		TraceID:      TraceIDString(w.TraceID),
		Session:      session,
		Seq:          w.Seq,
		Rung:         w.Rung,
		LatencyNs:    w.LatencyNs,
		DroppedSpans: w.Dropped,
		Spans:        make([]SpanRecord, 0, w.nspans),
	}
	if w.niter > 0 {
		r.Iter = append([]IterPoint(nil), w.iter[:w.niter]...)
	}
	for _, f := range flagNames {
		if w.Flags&f.bit != 0 {
			r.Flags = append(r.Flags, f.name)
		}
	}
	for i := 0; i < w.nspans; i++ {
		s := &w.spans[i]
		r.Spans = append(r.Spans, SpanRecord{
			Stage: s.Stage, Parent: s.Parent,
			StartNs: s.StartNs, DurNs: s.DurNs,
			Attempt: s.Attempt, Rung: s.Rung,
		})
	}
	return r
}

// Records converts the retained trees for JSONL export.
func (c *CausalTracer) Records() []TraceRecord {
	kept := c.Retained()
	out := make([]TraceRecord, 0, len(kept))
	for i := range kept {
		out = append(out, kept[i].Record(c.label))
	}
	return out
}

// WriteTraceRecords writes one JSON trace record per line.
//
//csecg:host export-time formatting
func WriteTraceRecords(w io.Writer, recs []TraceRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceRecords parses a JSONL trace stream, reporting the first
// malformed line by number.
//
//csecg:host import-time parsing
func ReadTraceRecords(r io.Reader) ([]TraceRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []TraceRecord
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// formatSeconds renders a nanosecond count as seconds for the
// OpenMetrics exposition.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WriteStageSeconds exposes the per-stage contribution histograms as
// csecg_window_stage_seconds{stage=...} with cumulative le buckets in
// seconds and OpenMetrics exemplars linking each bucket to the trace ID
// that last landed in it — the jump-off from a latency panel to
// csecg-triage or a sealed bundle. Observations are integer nanoseconds
// internally; the unit conversion happens only here, at export time.
//
//csecg:host export-time formatting
func (c *CausalTracer) WriteStageSeconds(w io.Writer, labels ...Label) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s Per-stage contribution to window decode latency, with trace exemplars\n", StageSecondsMetric)
	fmt.Fprintf(&b, "# TYPE %s histogram\n", StageSecondsMetric)
	for idx, stage := range c.stageNames {
		h := c.stageHists[idx]
		n := h.Count()
		if n == 0 {
			continue
		}
		ls := make([]Label, 0, len(labels)+1)
		ls = append(ls, labels...)
		ls = append(ls, Label{Key: "stage", Value: stage})
		top := 0
		for bkt := 0; bkt < NumBuckets; bkt++ {
			if h.Bucket(bkt) > 0 {
				top = bkt
			}
		}
		var cum int64
		for bkt := 0; bkt <= top; bkt++ {
			cum += h.Bucket(bkt)
			fmt.Fprintf(&b, "%s_bucket%s %d", StageSecondsMetric,
				labelSet(ls, fmt.Sprintf("le=%q", formatSeconds(BucketHigh(bkt)))), cum)
			e := &c.exemplars[idx][bkt]
			if tid := e.trace.Load(); tid != 0 {
				fmt.Fprintf(&b, " # {trace_id=%q} %s", TraceIDString(tid), formatSeconds(e.valNs.Load()))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", StageSecondsMetric, labelSet(ls, `le="+Inf"`), n)
		fmt.Fprintf(&b, "%s_sum%s %s\n", StageSecondsMetric, labelSet(ls, ""), formatSeconds(h.Sum()))
		fmt.Fprintf(&b, "%s_count%s %d\n", StageSecondsMetric, labelSet(ls, ""), n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
