package coordinator

import (
	"fmt"

	"csecg/internal/core"
	"csecg/internal/metrics"
	"csecg/internal/telemetry"
)

// Health is the receiver's liveness summary — what the monitor's
// /readyz endpoint reports for the stream.
type Health int

// Health states. The transition graph is Starting → Decoding (first
// window reconstructed, i.e. the coordinator is keyed) and
// Decoding ⇄ Degraded (a gap episode opens / the stream catches up).
const (
	// HealthStarting: no window decoded yet (awaiting the first key
	// frame).
	HealthStarting Health = iota
	// HealthDecoding: keyed and caught up — the ready state.
	HealthDecoding
	// HealthDegraded: a gap episode is open (missing windows, resync in
	// progress).
	HealthDegraded
)

// String names the state.
func (h Health) String() string {
	switch h {
	case HealthDecoding:
		return "decoding"
	case HealthDegraded:
		return "degraded"
	default:
		return "starting"
	}
}

// recentSlots is the sliding window (in 2-second slots) of the
// receiver's loss-rate observable feeding the quality estimator.
const recentSlots = 32

// TransportConfig tunes the coordinator's fault-tolerant receive path.
// The zero value enables reorder buffering and duplicate suppression
// only — the decoder's scheduled-key-frame recovery, made observable.
// Setting NACK adds the control channel: on a sequence gap the receiver
// requests selective retransmission from the mote's bounded ring with
// exponential backoff, falls back to an on-demand key-frame request
// when retransmission is exhausted, and finally goes passive to await
// the scheduled key frame.
type TransportConfig struct {
	// NACK enables the uplink control channel.
	NACK bool
	// ReorderWindow caps the packets buffered ahead of a gap
	// (default 8).
	ReorderWindow int
	// MaxRetries caps NACK attempts per gap episode, and again the
	// key-frame request attempts that follow (default 3).
	MaxRetries int
	// BackoffWindows is the initial retry spacing in window slots; it
	// doubles after every attempt (default 1).
	BackoffWindows int
	// WaitWindows is how long a NACK-less receiver holds a gap open for
	// late (reordered) arrivals before abandoning the missing windows
	// (default 2).
	WaitWindows int
	// QueueLimit bounds the admission queue between in-order release
	// and the decoder (default 16): under burst arrival a slow solver
	// sheds load instead of growing unbounded memory.
	QueueLimit int
	// DecodesPerSlot caps decodes per window slot, modeling the
	// coordinator's finite CPU under burst arrival; admitted windows
	// beyond the cap wait in the queue. 0 (the default) decodes every
	// admitted window immediately.
	DecodesPerSlot int
}

// withDefaults fills zero fields.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.ReorderWindow == 0 {
		c.ReorderWindow = 8
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffWindows == 0 {
		c.BackoffWindows = 1
	}
	if c.WaitWindows == 0 {
		c.WaitWindows = 2
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 16
	}
	return c
}

// TransportStats reports what the channel did to the session — the
// per-window gap accounting the paper's clean-link demo never needed.
type TransportStats struct {
	// Received counts packets entering the receiver (including
	// duplicates); Decoded the windows actually reconstructed;
	// DecodeFailures the in-order packets the decoder rejected
	// (desynchronized deltas after an abandoned gap).
	Received, Decoded, DecodeFailures int
	// Duplicates counts suppressed duplicate arrivals, Buffered the
	// packets held past a gap and delivered late, Overflows the packets
	// discarded because the reorder buffer was full.
	Duplicates, Buffered, Overflows int
	// Gaps counts stall episodes (first missing window to full
	// catch-up); Resyncs the key-frame resynchronizations the decoder
	// performed after a gap.
	Gaps, Resyncs int
	// NacksSent and KeyRequestsSent count control packets emitted.
	NacksSent, KeyRequestsSent int
	// Abandoned counts windows given up for good.
	Abandoned int
	// BadWindows counts decoded windows whose ground-truth-free quality
	// estimate crossed the paper's 9 % PRDN boundary; Recoveries counts
	// Degraded → Decoding health transitions.
	BadWindows, Recoveries int
	// LongestOutage is the longest run of consecutive undecoded
	// windows.
	LongestOutage int
	// RecoveryWindows is the per-gap recovery latency distribution:
	// window slots from gap detection to stream catch-up.
	RecoveryWindows []int
	// Rejected counts frames the ingest integrity check (CRC/framing)
	// refused — corruption stopped before the decoder.
	Rejected int
	// DecodePanics counts panics contained in the decode path: the
	// window is lost, the session survives.
	DecodePanics int
	// Shed counts admitted windows dropped by the bounded queue's
	// load-shedding policy (oldest non-key first).
	Shed int
	// QueuePeak is the admission queue's high-water mark.
	QueuePeak int
	// Reboots counts mote restarts (sequence reset mid-stream) the
	// receiver resynchronized to.
	Reboots int
}

// MeanRecovery returns the mean gap-recovery latency in windows.
func (s TransportStats) MeanRecovery() float64 {
	if len(s.RecoveryWindows) == 0 {
		return 0
	}
	sum := 0
	for _, w := range s.RecoveryWindows {
		sum += w
	}
	return float64(sum) / float64(len(s.RecoveryWindows))
}

// Decoded pairs a reconstruction with its window sequence number (the
// receiver releases windows strictly in sequence order).
type Decoded struct {
	Seq uint32
	Res *Result
	// EstPRDN is the window's ground-truth-free quality estimate
	// (metrics.EstimatePRDN over the decode's observables) and Bad its
	// classification against the paper's 9 % boundary.
	EstPRDN float64
	Bad     bool
}

// SpanCloser is the close step of a decoded window's causal span tree
// (DESIGN.md §14), used by the session loop (internal/session). The
// loop records the wait leaves up to the decode start on its clock;
// Close records the rest.
type SpanCloser struct {
	spans         *telemetry.CausalTracer
	rx            *Receiver
	reconstructNs int64
	lastRung      Rung
	lastCRC       int
}

// NewSpanCloser closes trees into spans. rx supplies the CRC-reject
// count; reconstructNs is the modeled reconstruct time of one window.
func NewSpanCloser(spans *telemetry.CausalTracer, rx *Receiver, reconstructNs int64) *SpanCloser {
	return &SpanCloser{spans: spans, rx: rx, reconstructNs: reconstructNs}
}

// Close records d's solver leaf from startNs, with its continuation
// stage/i children and downsampled iteration points, then the
// reconstruct leaf, the rung-change marker and the anomaly flags, and
// finishes wt with latency = decode end − acquisition end (the root's
// start). The latency comes from the timeline, not from the leaves, so
// a gap the caller leaves in the tiling shows up in triage. A nil wt
// (an untraced window, or one whose ring slot was reused) only
// advances the rung state.
func (c *SpanCloser) Close(wt *telemetry.WindowTrace, d Decoded, startNs int64) {
	res := d.Res
	lastRung := c.lastRung
	c.lastRung = res.Rung
	if wt == nil {
		return
	}
	fistaNs := int64(res.ModeledTime)
	si := wt.SolverLeaf(res.Rung.SolverStage(), startNs, fistaNs, int(res.Rung))
	if iters := res.StageIters; len(iters) > 1 && res.Iterations > 0 && si >= 0 {
		// Continuation sub-stages split the solve span proportionally to
		// per-stage iteration counts; the last absorbs the rounding
		// remainder.
		off := startNs
		rem := fistaNs
		for i, it := range iters {
			durS := rem
			if i < len(iters)-1 {
				durS = int64(float64(fistaNs) * float64(it) / float64(res.Iterations))
				if durS > rem {
					durS = rem
				}
			}
			wt.Child(si, telemetry.ContStageName(i), off, durS)
			off += durS
			rem -= durS
		}
	}
	if n := len(res.IterTrace); n > 0 {
		// Downsample the iteration trace, spread evenly across the solve
		// span.
		stride := (n + telemetry.MaxIterPoints - 1) / telemetry.MaxIterPoints
		for i := 0; i < n; i += stride {
			it := res.IterTrace[i]
			wt.Iteration(telemetry.IterPoint{
				AtNs:      startNs + int64(float64(fistaNs)*float64(i)/float64(n)),
				Objective: it.Objective, Residual: it.Residual, Step: it.Step,
			})
		}
	}
	endNs := startNs + fistaNs + c.reconstructNs
	wt.Leaf(telemetry.StageReconstruct, startNs+fistaNs, c.reconstructNs)
	if res.Rung != lastRung {
		wt.MarkRungChange(startNs, int(res.Rung))
	}
	var flags uint32
	if d.Bad {
		flags |= telemetry.FlagBad
	}
	if res.Degraded {
		flags |= telemetry.FlagDegraded
	}
	if res.DeadlineExpired {
		flags |= telemetry.FlagDeadline
	}
	// Frame-level CRC rejects carry no trustworthy sequence number, so
	// integrity trouble is attributed to the window finishing when the
	// reject counter moved.
	if rej := c.rx.stats.Rejected; rej > c.lastCRC {
		flags |= telemetry.FlagCRC
		c.lastCRC = rej
	}
	wt.Mark(flags)
	c.spans.Finish(wt, int(res.Rung), endNs-wt.Spans()[0].StartNs)
}

// gapState tracks one stall episode.
type gapState struct {
	openedSlot int
	first      uint32
	retries    int // NACK attempts used
	keyRetries int // key-frame request attempts used
	nextRetry  int // slot at which the next control packet fires
	backoff    int
	passive    bool // exhausted; awaiting the scheduled key frame
}

// Decoder abstracts the platform decoder the receiver releases windows
// to. *RealTimeDecoder is the production implementation; the chaos
// harness wraps it with fault injectors (panics, stalls) to exercise
// the containment path.
type Decoder interface {
	Decode(pkt *core.Packet) (*Result, error)
	Params() core.Params
}

// WindowCapture is one released window's decode summary as the flight
// recorder sees it and a diagnostics bundle stores it — every field the
// replay harness must reproduce bit-for-bit, keyed by (Ordinal, Seq),
// plus the capture coordinates (slot and decode ordinal) that align a
// bundle's records with its raw frame stream.
type WindowCapture struct {
	// Slot is the receiver's window-period counter at release; Ordinal
	// the session-monotonic decode-attempt index (failures included).
	Slot    int   `json:"slot"`
	Ordinal int64 `json:"ordinal"`
	// Seq is the window sequence number (per mote boot epoch).
	Seq uint32 `json:"seq"`
	// Rung/Iterations/Converged/DeadlineExpired/Degraded summarize the
	// solve; EscapeCount the entropy decoder's escape symbols.
	Rung            Rung `json:"rung"`
	Iterations      int  `json:"iterations"`
	EscapeCount     int  `json:"escape_count"`
	Converged       bool `json:"converged"`
	DeadlineExpired bool `json:"deadline_expired,omitempty"`
	Degraded        bool `json:"degraded,omitempty"`
	// ResidualNorm, EstPRDN and Bad are the ground-truth-free quality
	// verdict; ModeledNs the cycle-model decode time.
	ResidualNorm float64 `json:"residual_norm"`
	EstPRDN      float64 `json:"est_prdn"`
	Bad          bool    `json:"bad,omitempty"`
	ModeledNs    int64   `json:"modeled_ns"`
	// Trace is the window's causal trace ID (0 when the session streams
	// untraced), derived deterministically from the session's trace seed
	// and Seq — the link between a sealed bundle's window records, the
	// stage-seconds exemplars and a retained span tree.
	// telemetry.TraceIDString renders the 16-hex-digit form /sessions
	// and the exemplars use; it stays numeric so the capture ring stores
	// it without formatting.
	Trace uint64 `json:"trace,omitempty"`
}

// FlightRecorder taps the receive path for the black-box flight
// recorder (internal/blackbox implements it). Capture calls run inline
// on the receive path, so implementations must be allocation-free and
// fast; RecordDecodeFailure with panicked=true is the anomaly path and
// may do heavier work (it seals a diagnostics bundle).
type FlightRecorder interface {
	// RecordFrame captures one post-CRC wire frame at the given slot,
	// in arrival order. The recorder must copy the bytes — the caller's
	// buffer is reused.
	RecordFrame(slot int, seq uint32, kind uint8, frame []byte)
	// RecordWindow captures one released window's decode summary.
	RecordWindow(w WindowCapture)
	// RecordHealth captures a health transition.
	RecordHealth(slot int, from, to Health)
	// RecordDecodeFailure captures one failed decode attempt; panicked
	// marks a contained panic (an anomaly trigger).
	RecordDecodeFailure(slot int, ordinal int64, seq uint32, panicked bool)
	// RecordSlot notes the receiver's slot counter advancing, so a
	// sealed bundle knows how many window periods it spans even when
	// the tail slots carried no frames.
	RecordSlot(slot int)
}

// Receiver is the coordinator's transport endpoint: it ingests packets
// off the (lossy, reordering, duplicating) link, releases windows to
// the platform decoder strictly in order through a bounded admission
// queue, and drives the NACK resync state machine. Call Push (or
// IngestFrame for raw wire frames) for every arrival, EndSlot once per
// window period (its return is the control traffic to send uplink), and
// Close when the stream ends.
//
// The receiver is not safe for concurrent use; one goroutine must own
// it.
type Receiver struct {
	dec Decoder
	cfg TransportConfig

	expected uint32 // next sequence number (current epoch) to release
	maxSeen  uint32 // highest sequence number observed (current epoch)
	anySeen  bool
	slot     int // window slots elapsed = windows produced by the mote
	// epoch is the slot at which the current mote boot's sequence 0
	// aligns: a mote reboot resets the wire sequence mid-stream, and
	// slot-versus-sequence comparisons use epoch + seq.
	epoch int
	buf   map[uint32]*core.Packet
	// queue is the bounded admission queue between in-order release and
	// the decoder; decodesLeft is the per-slot decode budget remaining.
	queue       []*core.Packet
	decodesLeft int
	gap         *gapState
	outage      int // current run of undecoded windows

	// recent is the sliding per-slot lost-window ring behind the
	// quality estimator's GapRate observable.
	recent    [recentSlots]int
	recentIdx int

	// rec, when non-nil, is the black-box flight recorder tapping the
	// receive path; ordinal counts decode attempts (the alignment key
	// between bundle window records and scripted replay failures).
	// keyWanted flags a contained decode panic since the last EndSlot:
	// the deltas behind the lost window fail until a key frame, so with
	// the control channel on EndSlot asks the mote for one.
	rec       FlightRecorder
	ordinal   int64
	keyWanted bool
	// traceSeed derives per-window causal trace IDs for WindowCapture
	// (0 → untraced); spans, when set, is the session's span tracer.
	traceSeed uint64
	spans     *telemetry.CausalTracer

	stats TransportStats
	met   *transportMetrics
}

// transportMetrics caches the telemetry pointers the receive path
// records into.
type transportMetrics struct {
	received, decoded, duplicates, failures *telemetry.Counter
	gaps, nacks, keyRequests, abandoned     *telemetry.Counter
	recoverySlots                           *telemetry.Histogram
	qualityWindows, qualityBad              *telemetry.Counter
	estPRDNCenti                            *telemetry.Histogram
	health                                  *telemetry.Gauge
	recoveries                              *telemetry.Counter
	rejected, panics, shed, reboots         *telemetry.Counter
	queueDepth                              *telemetry.Gauge
}

// NewReceiver builds a receiver around the platform decoder.
func NewReceiver(dec Decoder, cfg TransportConfig) *Receiver {
	return &Receiver{
		dec: dec,
		cfg: cfg.withDefaults(),
		buf: map[uint32]*core.Packet{},
	}
}

// Instrument attaches session telemetry: the transport counters and
// the gap-recovery latency histogram (in window slots). A nil registry
// detaches.
func (r *Receiver) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		r.met = nil
		return
	}
	r.met = &transportMetrics{
		received:       reg.Counter("transport_received_total"),
		decoded:        reg.Counter("transport_decoded_total"),
		duplicates:     reg.Counter("transport_duplicates_total"),
		failures:       reg.Counter("transport_decode_failures_total"),
		gaps:           reg.Counter("transport_gaps_total"),
		nacks:          reg.Counter("transport_nacks_sent_total"),
		keyRequests:    reg.Counter("transport_key_requests_sent_total"),
		abandoned:      reg.Counter("transport_abandoned_total"),
		recoverySlots:  reg.Histogram("transport_recovery_slots"),
		qualityWindows: reg.Counter("quality_windows_total"),
		qualityBad:     reg.Counter("quality_bad_windows_total"),
		estPRDNCenti:   reg.Histogram("quality_est_prdn_centi"),
		health:         reg.Gauge("transport_health_state"),
		recoveries:     reg.Counter("transport_recoveries_total"),
		rejected:       reg.Counter("transport_crc_rejected_total"),
		panics:         reg.Counter("transport_decode_panics_total"),
		shed:           reg.Counter("transport_shed_total"),
		reboots:        reg.Counter("transport_reboots_total"),
		queueDepth:     reg.Gauge("transport_queue_depth"),
	}
	reg.SetHelp("transport_crc_rejected_total", "wire frames refused by the ingest CRC/framing check")
	reg.SetHelp("transport_decode_panics_total", "decode panics contained to their window")
	reg.SetHelp("transport_shed_total", "windows dropped by admission-queue load shedding")
	reg.SetHelp("transport_reboots_total", "mote sequence resets resynchronized mid-stream")
	reg.SetHelp("transport_queue_depth", "admission queue depth after the last pump")
	reg.SetHelp("quality_windows_total", "decoded windows scored by the ground-truth-free quality estimator")
	reg.SetHelp("quality_bad_windows_total", "windows whose estimated PRDN crossed the 9% diagnostic boundary")
	reg.SetHelp("quality_est_prdn_centi", "estimated PRDN per decoded window, in 0.01% units")
	reg.SetHelp("transport_health_state", "receiver health: 0 starting, 1 decoding, 2 degraded")
	reg.SetHelp("transport_recoveries_total", "degraded-to-decoding health transitions")
}

// SetRecorder attaches a flight recorder to the receive path (nil
// detaches). Attach before the first Push so the recorded frame stream
// is complete from the session start.
func (r *Receiver) SetRecorder(rec FlightRecorder) { r.rec = rec }

// SetTraceSeed installs the session's causal trace-ID seed
// (telemetry.TraceSeed of the session label): every released window's
// WindowCapture.Trace becomes telemetry.DeriveTraceID(seed, seq), the
// same ID the span tracer, monitor and replay harness compute. Zero
// disables trace stamping.
func (r *Receiver) SetTraceSeed(seed uint64) { r.traceSeed = seed }

// SetTracer attaches the session's causal span tracer: released
// windows are stamped with its trace IDs (SetTraceSeed of its seed),
// and a window the admission queue sheds has its partial tree finished
// as dropped, since it will never decode. Install before streaming.
func (r *Receiver) SetTracer(spans *telemetry.CausalTracer) {
	r.spans = spans
	r.traceSeed = spans.Seed()
}

// ResumeAt positions a fresh receiver mid-stream for bundle replay: the
// next expected sequence number and the slot-grid origin of a bundle
// whose frame ring wrapped. The epoch is aligned so slot-versus-sequence
// comparisons stay consistent.
func (r *Receiver) ResumeAt(seq uint32, slot int) {
	r.expected = seq
	r.maxSeen = seq
	r.slot = slot
	r.epoch = slot - int(seq)
}

// Health returns the receiver's current liveness state.
func (r *Receiver) Health() Health {
	switch {
	case r.gap != nil:
		return HealthDegraded
	case r.stats.Decoded > 0:
		return HealthDecoding
	default:
		return HealthStarting
	}
}

// GapRate returns the recent loss fraction: windows lost (abandoned or
// undecodable) over the last recentSlots window slots — the estimator's
// transport observable.
func (r *Receiver) GapRate() float64 {
	lost := 0
	for _, n := range r.recent {
		lost += n
	}
	rate := float64(lost) / float64(recentSlots)
	if rate > 1 {
		rate = 1
	}
	return rate
}

// noteLost attributes n lost windows to the current slot of the
// sliding loss window.
func (r *Receiver) noteLost(n int) {
	r.recent[r.recentIdx] += n
}

// syncHealth publishes the health gauge and counts recoveries; callers
// invoke it after any state-changing step.
func (r *Receiver) syncHealth(before Health) {
	now := r.Health()
	if before == HealthDegraded && now == HealthDecoding {
		r.stats.Recoveries++
		if r.met != nil {
			r.met.recoveries.Inc()
		}
	}
	if r.met != nil {
		r.met.health.Set(int64(now))
	}
	if r.rec != nil && now != before {
		r.rec.RecordHealth(r.slot, before, now)
	}
}

// Stats returns a snapshot of the transport counters.
func (r *Receiver) Stats() TransportStats {
	s := r.stats
	s.RecoveryWindows = append([]int(nil), r.stats.RecoveryWindows...)
	return s
}

// ParseFrame parses one wire frame, enforcing the CRC at ingest: a
// frame the integrity check refuses is counted (stats.Rejected,
// transport_crc_rejected_total) and never reaches the decoder.
func (r *Receiver) ParseFrame(frame []byte) (*core.Packet, error) {
	pkt, _, err := core.UnmarshalPacket(frame)
	if err != nil {
		r.stats.Rejected++
		if r.met != nil {
			r.met.rejected.Inc()
		}
		return nil, err
	}
	if r.rec != nil {
		r.rec.RecordFrame(r.slot, pkt.Seq, uint8(pkt.Kind), frame)
	}
	return pkt, nil
}

// IngestFrame parses and pushes one wire frame. A corrupt frame is
// counted and dropped (equivalent to a channel loss — the gap machinery
// recovers it); the error return is reserved for protocol violations
// from Push.
func (r *Receiver) IngestFrame(frame []byte) ([]Decoded, error) {
	pkt, err := r.ParseFrame(frame)
	if err != nil {
		return nil, nil
	}
	return r.Push(pkt)
}

// Push ingests one packet from the link, returning any windows released
// (in sequence order). Control-kind packets are rejected — they belong
// on the uplink.
func (r *Receiver) Push(pkt *core.Packet) ([]Decoded, error) {
	if pkt == nil {
		return nil, nil
	}
	if pkt.Kind.IsControl() {
		return nil, fmt.Errorf("coordinator: control packet kind %d on the downlink", pkt.Kind)
	}
	before := r.Health()
	defer func() { r.syncHealth(before) }()
	r.stats.Received++
	if r.met != nil {
		r.met.received.Inc()
	}
	// A key frame restarting the sequence space far behind the release
	// point is a mote reboot, not a stale duplicate: resynchronize the
	// epoch instead of silently discarding the new boot's stream.
	if pkt.Kind == core.KindKey && pkt.Seq == 0 && r.anySeen &&
		r.expected > uint32(r.cfg.ReorderWindow) {
		r.rebootResync()
	}
	if pkt.Seq > r.maxSeen || !r.anySeen {
		r.maxSeen = pkt.Seq
		r.anySeen = true
	}
	if pkt.Seq < r.expected {
		r.countDuplicate()
		return nil, nil
	}
	if _, dup := r.buf[pkt.Seq]; dup {
		r.countDuplicate()
		return nil, nil
	}
	if pkt.Seq != r.expected {
		if len(r.buf) >= r.cfg.ReorderWindow {
			r.stats.Overflows++
			return nil, nil
		}
		r.buf[pkt.Seq] = pkt
		r.stats.Buffered++
		return nil, nil
	}
	r.buf[pkt.Seq] = pkt
	return r.drain(), nil
}

// rebootResync realigns the receiver to a rebooted mote: the windows
// the old boot still owed (missing, buffered or queued) are abandoned,
// the buffers cleared, and the sequence space restarted with the
// current slot as the new epoch origin. The incoming key frame then
// resynchronizes the decoder's measurement state as any key frame does.
func (r *Receiver) rebootResync() {
	lost := r.slot - (r.epoch + int(r.expected)) + len(r.queue)
	if lost > 0 {
		r.stats.Abandoned += lost
		if r.met != nil {
			r.met.abandoned.Add(int64(lost))
		}
		r.bumpOutage(lost)
		r.noteLost(lost)
	}
	r.buf = map[uint32]*core.Packet{}
	r.queue = r.queue[:0]
	if r.gap != nil {
		// The reboot key frame is this episode's recovery point.
		r.stats.RecoveryWindows = append(r.stats.RecoveryWindows, r.slot-r.gap.openedSlot+1)
		if r.met != nil {
			r.met.recoverySlots.Observe(int64(r.slot - r.gap.openedSlot + 1))
		}
		r.gap = nil
	}
	r.epoch = r.slot
	r.expected = 0
	r.maxSeen = 0
	r.stats.Reboots++
	if r.met != nil {
		r.met.reboots.Inc()
		r.met.queueDepth.Set(0)
	}
}

// drain admits consecutive buffered windows starting at expected into
// the bounded queue, then pumps the decoder.
func (r *Receiver) drain() []Decoded {
	for {
		pkt, ok := r.buf[r.expected]
		if !ok {
			break
		}
		delete(r.buf, r.expected)
		r.expected++
		r.admit(pkt)
	}
	out := r.pump()
	r.closeGapIfCaughtUp()
	return out
}

// traceID stamps a released window with its causal trace ID (0 when
// the session streams untraced).
func (r *Receiver) traceID(seq uint32) uint64 {
	if r.traceSeed == 0 {
		return 0
	}
	return telemetry.DeriveTraceID(r.traceSeed, seq)
}

// admit appends one in-order window to the admission queue. When the
// queue is full, the oldest non-key window is shed first: key frames
// are resync points, and the freshest windows are the ones the display
// still has time to show.
func (r *Receiver) admit(pkt *core.Packet) {
	if len(r.queue) >= r.cfg.QueueLimit {
		drop := -1
		for i, p := range r.queue {
			if p.Kind != core.KindKey {
				drop = i
				break
			}
		}
		if drop < 0 {
			drop = 0
		}
		if r.spans != nil {
			if wt := r.spans.Lookup(r.queue[drop].Seq); wt != nil {
				r.spans.FinishDropped(wt, telemetry.FlagShed)
			}
		}
		r.queue = append(r.queue[:drop], r.queue[drop+1:]...)
		r.stats.Shed++
		r.noteLost(1)
		r.bumpOutage(1)
		if r.met != nil {
			r.met.shed.Inc()
		}
	}
	r.queue = append(r.queue, pkt)
	if len(r.queue) > r.stats.QueuePeak {
		r.stats.QueuePeak = len(r.queue)
	}
}

// pump decodes admitted windows in order, within the per-slot decode
// budget (unlimited when DecodesPerSlot is 0).
func (r *Receiver) pump() []Decoded {
	var out []Decoded
	for len(r.queue) > 0 {
		if r.cfg.DecodesPerSlot > 0 && r.decodesLeft <= 0 {
			break
		}
		pkt := r.queue[0]
		r.queue[0] = nil
		r.queue = r.queue[1:]
		r.decodesLeft--
		ord := r.ordinal
		r.ordinal++
		res, panicked, err := r.decodeContained(pkt)
		if err != nil {
			// In-order window the decoder still rejects (a delta behind
			// an abandoned gap, desynchronized until the next key frame)
			// or a contained panic. The window is lost.
			r.stats.DecodeFailures++
			if r.met != nil {
				r.met.failures.Inc()
			}
			if r.rec != nil {
				r.rec.RecordDecodeFailure(r.slot, ord, pkt.Seq, panicked)
			}
			r.keyWanted = r.keyWanted || panicked
			r.bumpOutage(1)
			r.noteLost(1)
			continue
		}
		r.stats.Decoded++
		if r.met != nil {
			r.met.decoded.Inc()
		}
		r.outage = 0
		if res.Resynced {
			r.stats.Resyncs++
		}
		d := r.score(Decoded{Seq: pkt.Seq, Res: res})
		if r.rec != nil {
			r.rec.RecordWindow(WindowCapture{
				Slot:            r.slot,
				Ordinal:         ord,
				Seq:             pkt.Seq,
				Rung:            res.Rung,
				Iterations:      res.Iterations,
				EscapeCount:     res.EscapeCount,
				Converged:       res.Converged,
				DeadlineExpired: res.DeadlineExpired,
				Degraded:        res.Degraded,
				ResidualNorm:    res.ResidualNorm,
				EstPRDN:         d.EstPRDN,
				Bad:             d.Bad,
				ModeledNs:       int64(res.ModeledTime),
				Trace:           r.traceID(pkt.Seq),
			})
		}
		out = append(out, d)
	}
	if r.met != nil {
		r.met.queueDepth.Set(int64(len(r.queue)))
	}
	return out
}

// decodeContained isolates one window's decode: a panic anywhere in the
// reconstruction pipeline is contained to that window — counted,
// converted to a decode failure, and the session continues. The decoder
// may be left mid-update; the next key frame rebuilds its measurement
// state from scratch, so containment needs no decoder cooperation.
func (r *Receiver) decodeContained(pkt *core.Packet) (res *Result, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.stats.DecodePanics++
			if r.met != nil {
				r.met.panics.Inc()
			}
			res, panicked, err = nil, true, fmt.Errorf("coordinator: decode panic on window %d: %v", pkt.Seq, p)
		}
	}()
	res, err = r.dec.Decode(pkt)
	return res, false, err
}

// score attaches the ground-truth-free quality estimate to a released
// window: the decoder's residual/convergence/escape observables plus
// the transport's recent gap rate, through the calibrated estimator.
func (r *Receiver) score(d Decoded) Decoded {
	p := r.dec.Params()
	esc := 0.0
	if p.M > 0 {
		esc = float64(d.Res.EscapeCount) / float64(p.M)
	}
	d.EstPRDN = metrics.EstimatePRDN(metrics.QualityObservables{
		Residual:   d.Res.ResidualNorm,
		M:          p.M,
		N:          p.N,
		Converged:  d.Res.Converged,
		EscapeRate: esc,
		GapRate:    r.GapRate(),
	})
	d.Bad = d.EstPRDN > metrics.GoodPRDN
	if d.Bad {
		r.stats.BadWindows++
	}
	if r.met != nil {
		r.met.qualityWindows.Inc()
		if d.Bad {
			r.met.qualityBad.Inc()
		}
		r.met.estPRDNCenti.Observe(int64(d.EstPRDN * 100))
	}
	return d
}

// countDuplicate records one suppressed duplicate arrival.
func (r *Receiver) countDuplicate() {
	r.stats.Duplicates++
	if r.met != nil {
		r.met.duplicates.Inc()
	}
}

// bumpOutage extends the current undecoded run by n windows.
func (r *Receiver) bumpOutage(n int) {
	r.outage += n
	if r.outage > r.stats.LongestOutage {
		r.stats.LongestOutage = r.outage
	}
}

// closeGapIfCaughtUp ends the stall episode once every produced window
// has been released or abandoned and nothing is parked in the buffer.
func (r *Receiver) closeGapIfCaughtUp() {
	if r.gap == nil {
		return
	}
	if len(r.buf) == 0 && r.epoch+int(r.expected) >= r.slot {
		r.stats.RecoveryWindows = append(r.stats.RecoveryWindows, r.slot-r.gap.openedSlot+1)
		if r.met != nil {
			r.met.recoverySlots.Observe(int64(r.slot - r.gap.openedSlot + 1))
		}
		r.gap = nil
	}
}

// abandonTo gives up on the windows in [expected, to): they can no
// longer arrive (or retransmission is exhausted). Buffered successors
// are then drained; desynchronized deltas among them fail decode and
// the next key frame resynchronizes.
func (r *Receiver) abandonTo(to uint32) []Decoded {
	if to <= r.expected {
		return nil
	}
	n := int(to - r.expected)
	r.stats.Abandoned += n
	if r.met != nil {
		r.met.abandoned.Add(int64(n))
	}
	r.bumpOutage(n)
	r.noteLost(n)
	r.expected = to
	// Drop buffered packets the jump overtook (deltas parked behind the
	// key frame we skipped to): they are already counted abandoned, and
	// leaving them would wedge the buffer forever.
	//csecg:orderok unconditional filter; result is order-independent
	for seq := range r.buf {
		if seq < r.expected {
			delete(r.buf, seq)
		}
	}
	return r.drain()
}

// earliestBufferedKey returns the smallest buffered key-frame sequence.
func (r *Receiver) earliestBufferedKey() (uint32, bool) {
	var min uint32
	found := false
	//csecg:orderok min reduction, independent of iteration order
	for seq, pkt := range r.buf {
		if pkt.Kind == core.KindKey && (!found || seq < min) {
			min = seq
			found = true
		}
	}
	return min, found
}

// minBuffered returns the smallest buffered sequence number.
func (r *Receiver) minBuffered() (uint32, bool) {
	var min uint32
	found := false
	//csecg:orderok min reduction, independent of iteration order
	for seq := range r.buf {
		if !found || seq < min {
			min = seq
			found = true
		}
	}
	return min, found
}

// EndSlot marks the end of one window period: the mote has produced
// (and the channel has delivered, dropped or delayed) exactly one more
// window. It returns the control packets to send on the uplink, plus
// any windows released by abandoning a hopeless gap. With the control
// channel on, a decode panic contained since the last EndSlot adds a
// key-frame request, unless the gap state machine sends one already.
func (r *Receiver) EndSlot() ([]*core.Packet, []Decoded) {
	before := r.Health()
	defer func() { r.syncHealth(before) }()
	r.slot++
	if r.rec != nil {
		r.rec.RecordSlot(r.slot)
	}
	r.recentIdx = (r.recentIdx + 1) % recentSlots
	r.recent[r.recentIdx] = 0
	// A fresh slot brings a fresh decode budget: work off the admission
	// queue's backlog before any gap/control decisions.
	r.decodesLeft = r.cfg.DecodesPerSlot
	released := r.pump()
	r.closeGapIfCaughtUp()
	ctrl, more := r.chaseGap()
	released = append(released, more...)
	if r.keyWanted {
		r.keyWanted = false
		if r.cfg.NACK && (len(ctrl) == 0 || ctrl[0].Kind != core.KindKeyRequest) {
			ctrl = append(ctrl, r.keyRequest())
		}
	}
	return ctrl, released
}

// chaseGap advances the stall episode's state machine by one slot: it
// opens an episode when the receiver is behind, sends NACKs and then
// key-frame requests with backoff, and abandons what cannot arrive. It
// returns the control packets to send and the windows the abandonment
// released.
func (r *Receiver) chaseGap() ([]*core.Packet, []Decoded) {
	if r.epoch+int(r.expected) >= r.slot && len(r.buf) == 0 {
		// Fully caught up (gap already closed by drain).
		return nil, nil
	}
	if r.gap == nil {
		r.gap = &gapState{
			openedSlot: r.slot,
			first:      r.expected,
			nextRetry:  r.slot,
			backoff:    r.cfg.BackoffWindows,
		}
		r.stats.Gaps++
		if r.met != nil {
			r.met.gaps.Inc()
		}
	}
	g := r.gap
	if !r.cfg.NACK {
		// No control channel: hold briefly for reordered late
		// arrivals, then fall back to the scheduled key frame.
		if r.slot-g.openedSlot+1 >= r.cfg.WaitWindows {
			return nil, r.abandonBehindBuffer()
		}
		return nil, nil
	}
	if g.passive {
		return nil, r.abandonBehindBuffer()
	}
	if ks, ok := r.earliestBufferedKey(); ok {
		// A guaranteed resync point is already in hand. Give the last
		// NACK's retransmits one backoff round to restore the full
		// history; once the NACK ladder is exhausted or the round
		// expires, jumping to the key frame beats stalling the display.
		if g.retries >= r.cfg.MaxRetries || r.slot >= g.nextRetry {
			return nil, r.abandonTo(ks)
		}
		return nil, nil
	}
	if r.slot < g.nextRetry {
		return nil, nil
	}
	if g.retries < r.cfg.MaxRetries {
		g.retries++
		g.nextRetry = r.slot + g.backoff
		g.backoff *= 2
		r.stats.NacksSent++
		if r.met != nil {
			r.met.nacks.Inc()
		}
		return []*core.Packet{core.NewNack(r.expected, r.missingCount())}, nil
	}
	if g.keyRetries < r.cfg.MaxRetries {
		g.keyRetries++
		g.nextRetry = r.slot + g.backoff
		g.backoff *= 2
		return []*core.Packet{r.keyRequest()}, nil
	}
	// Both request ladders exhausted (the control channel itself is
	// too lossy): degrade gracefully to the scheduled key frame.
	g.passive = true
	return nil, r.abandonBehindBuffer()
}

// keyRequest counts and builds a request for the mote to promote its
// next window to a key frame.
func (r *Receiver) keyRequest() *core.Packet {
	r.stats.KeyRequestsSent++
	if r.met != nil {
		r.met.keyRequests.Inc()
	}
	return core.NewKeyRequest(r.expected)
}

// abandonBehindBuffer abandons the missing windows in front of the
// earliest buffered packet, letting the stream limp forward on whatever
// arrived (deltas fail desynchronized; a key frame resyncs).
func (r *Receiver) abandonBehindBuffer() []Decoded {
	if min, ok := r.minBuffered(); ok {
		return r.abandonTo(min)
	}
	return nil
}

// missingCount sizes a NACK: the contiguous missing run at expected,
// bounded by the first buffered successor or the newest sequence seen.
func (r *Receiver) missingCount() int {
	end := r.maxSeen + 1
	if min, ok := r.minBuffered(); ok && min < end {
		end = min
	}
	if end <= r.expected {
		return 1
	}
	return int(end - r.expected)
}

// Close finalizes the session: missing trailing windows are abandoned
// and the last gap episode's latency is recorded.
func (r *Receiver) Close() []Decoded {
	before := r.Health()
	defer func() { r.syncHealth(before) }()
	// The final flush ignores the per-slot decode budget: everything
	// admitted is decoded before the session ends.
	r.decodesLeft = int(^uint(0) >> 1)
	out := r.pump()
	// Each abandonBehindBuffer consumes at least the earliest buffered
	// packet, so this terminates even across multiple holes.
	for len(r.buf) > 0 {
		out = append(out, r.abandonBehindBuffer()...)
	}
	if r.epoch+int(r.expected) < r.slot {
		n := r.slot - r.epoch - int(r.expected)
		r.stats.Abandoned += n
		if r.met != nil {
			r.met.abandoned.Add(int64(n))
		}
		r.bumpOutage(n)
		r.noteLost(n)
		r.expected = uint32(r.slot - r.epoch)
	}
	r.closeGapIfCaughtUp()
	return out
}
