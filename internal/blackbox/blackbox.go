// Package blackbox is the coordinator's flight recorder: an always-on,
// bounded-memory ring of recent session history — raw ingested frames
// (post-CRC, pre-decode), per-window decode summaries, health and SLO
// transitions — that seals a self-contained diagnostics bundle to disk
// when an anomaly trigger fires. The capture path (the
// coordinator.FlightRecorder methods plus RecordSLOTransition) is
// allocation-free: fixed-size rings allocated once at construction,
// copy-in semantics, no wall clock. Sealing and parsing are host-side
// operations and allocate freely.
//
// A sealed bundle (see bundle.go) replays deterministically through the
// real receiver and solver stack (see replay.go and cmd/csecg-replay):
// every field incident becomes a reproducible test case.
package blackbox

import (
	"fmt"
	"sync"

	"csecg/internal/coordinator"
	"csecg/internal/telemetry"
)

// Defaults for Config zero fields, sized so a recorder rings roughly
// the last 30 s of a one-lead session (≈15 windows/s worst case under
// burst arrival) in well under a megabyte.
const (
	DefaultFrameArenaBytes  = 256 << 10
	DefaultFrameCap         = 1024
	DefaultWindowCap        = 512
	DefaultEventCap         = 256
	DefaultMaxBundleBytes   = 1 << 20
	DefaultRateLimitWindows = 64
	DefaultMaxBundles       = 8
)

// labelCap bounds the per-event name/detail text captured on the hot
// path; longer strings are truncated, never allocated around.
const labelCap = 48

// Sink persists sealed bundles. WriteBundle stores data under name and
// returns the full path (or URL) it landed at. Implementations must be
// safe for concurrent use.
type Sink interface {
	WriteBundle(name string, data []byte) (string, error)
}

// Config sizes a Recorder. Zero fields take the Default* constants; a
// nil Sink records but never persists (TriggerSeal and SealNow report
// ErrNoSink).
type Config struct {
	// Session names the stream; it lands in the bundle header and
	// filename.
	Session string
	// Sink persists sealed bundles (DirSink writes files).
	Sink Sink
	// FrameArenaBytes bounds the raw-frame byte ring; FrameCap the
	// frame count ring. Whichever fills first evicts oldest-first.
	FrameArenaBytes int
	FrameCap        int
	// WindowCap bounds the per-window decode-summary ring.
	WindowCap int
	// EventCap bounds the health/SLO/failure/trigger event ring.
	EventCap int
	// MaxBundleBytes caps a sealed bundle's encoded size; oldest
	// frames are dropped (and the bundle marked truncated) to fit.
	MaxBundleBytes int
	// RateLimitWindows is the minimum number of newly captured windows
	// between two automatic seals (manual SealNow bypasses it).
	RateLimitWindows int
	// MaxBundles caps total bundles sealed over the recorder's
	// lifetime — a runaway trigger cannot fill the disk.
	MaxBundles int
}

func (c Config) withDefaults() Config {
	if c.FrameArenaBytes == 0 {
		c.FrameArenaBytes = DefaultFrameArenaBytes
	}
	if c.FrameCap == 0 {
		c.FrameCap = DefaultFrameCap
	}
	if c.WindowCap == 0 {
		c.WindowCap = DefaultWindowCap
	}
	if c.EventCap == 0 {
		c.EventCap = DefaultEventCap
	}
	if c.MaxBundleBytes == 0 {
		c.MaxBundleBytes = DefaultMaxBundleBytes
	}
	if c.RateLimitWindows == 0 {
		c.RateLimitWindows = DefaultRateLimitWindows
	}
	if c.MaxBundles == 0 {
		c.MaxBundles = DefaultMaxBundles
	}
	return c
}

// TriggerCause identifies what sealed a bundle.
type TriggerCause uint8

// Trigger causes, in the order the tentpole lists them.
const (
	TriggerSLO TriggerCause = iota + 1
	TriggerPanic
	TriggerChaosViolation
	TriggerManual
)

func (c TriggerCause) String() string {
	switch c {
	case TriggerSLO:
		return "slo"
	case TriggerPanic:
		return "decode-panic"
	case TriggerChaosViolation:
		return "chaos-violation"
	case TriggerManual:
		return "manual"
	default:
		return "unknown"
	}
}

// frameEntry locates one captured frame inside the byte arena.
type frameEntry struct {
	off, n int
	slot   int
	seq    uint32
	kind   uint8
}

// event kinds in the fixed ring.
const (
	eventHealth uint8 = iota + 1
	eventSLO
	eventFailure
	eventTrigger
)

// event is one fixed-size ring entry; label holds SLO names and trigger
// detail, truncated to labelCap bytes.
type event struct {
	kind     uint8
	flag     bool // failure: panicked; trigger: suppressed
	slot     int
	tsNs     int64
	ordinal  int64
	seq      uint32
	a, b     int64 // health/SLO from→to codes; trigger: cause
	label    [labelCap]byte
	labelLen uint8
}

// Recorder is the flight recorder. It implements
// coordinator.FlightRecorder; all methods are safe for concurrent use
// (capture runs on the stream goroutine while HTTP triggers seal).
type Recorder struct {
	cfg Config

	mu sync.Mutex
	// Raw-frame ring: a byte arena consumed modularly plus a parallel
	// entry ring. aStart/aUsed track the live arena span (it wraps).
	arena  []byte
	aStart int
	aUsed  int
	frames []frameEntry
	fHead  int
	fLen   int
	// Window and event rings.
	windows []coordinator.WindowCapture
	wHead   int
	wLen    int
	events  []event
	eHead   int
	eLen    int
	// lastSlot is the highest receiver slot observed (RecordSlot keeps
	// it advancing through frame-less tail slots).
	lastSlot int
	// Monotonic capture accounting.
	capturedWindows int64
	evictedFrames   int64
	evictedWindows  int64
	evictedEvents   int64
	oversizeFrames  int64
	// Seal state.
	meta            SessionMeta
	reg             *telemetry.Registry
	sealsStarted    int
	lastSealWindows int64
	sealedAny       bool
	suppressed      int64
	bundles         []string
	sealErr         error

	// inflight tracks seals whose sink write is still running, so a
	// draining server can wait for bundles to hit disk.
	inflight sync.WaitGroup
}

// NewRecorder builds a recorder; every ring is allocated here, once.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:     cfg,
		arena:   make([]byte, cfg.FrameArenaBytes),
		frames:  make([]frameEntry, cfg.FrameCap),
		windows: make([]coordinator.WindowCapture, cfg.WindowCap),
		events:  make([]event, cfg.EventCap),
	}
	r.meta.Session = cfg.Session
	r.meta.Reproducible = true
	return r
}

// SetMeta records the session parameters a bundle needs to rebuild the
// decode stack for replay. Call before streaming; FromDecoder builds
// one from resolved params.
func (r *Recorder) SetMeta(m SessionMeta) {
	r.mu.Lock()
	if m.Session == "" {
		m.Session = r.cfg.Session
	}
	r.meta = m
	r.mu.Unlock()
}

// MarkUnreproducible flags the session as not bit-replayable from its
// frame stream (e.g. solver costs were perturbed mid-run); csecg-replay
// will refuse to diff such a bundle instead of reporting false
// divergence.
func (r *Recorder) MarkUnreproducible(reason string) {
	r.mu.Lock()
	r.meta.Reproducible = false
	if r.meta.UnreproducibleReason == "" {
		r.meta.UnreproducibleReason = reason
	}
	r.mu.Unlock()
}

// AttachRegistry points the recorder at the session's telemetry
// registry; sealed bundles embed a Snapshot of it.
func (r *Recorder) AttachRegistry(reg *telemetry.Registry) {
	r.mu.Lock()
	r.reg = reg
	r.mu.Unlock()
}

// RecordFrame captures one post-CRC wire frame: copy-in to the byte
// arena, evicting oldest frames until it fits.
//
//csecg:hotpath
func (r *Recorder) RecordFrame(slot int, seq uint32, kind uint8, frame []byte) {
	r.mu.Lock()
	n := len(frame)
	if n > len(r.arena) {
		r.oversizeFrames++
		r.mu.Unlock()
		return
	}
	for r.fLen > 0 && (r.aUsed+n > len(r.arena) || r.fLen == len(r.frames)) {
		r.evictOldestFrameLocked()
	}
	off := r.aStart + r.aUsed
	if off >= len(r.arena) {
		off -= len(r.arena)
	}
	first := len(r.arena) - off
	if first > n {
		first = n
	}
	copy(r.arena[off:off+first], frame[:first])
	copy(r.arena[:n-first], frame[first:])
	e := &r.frames[(r.fHead+r.fLen)%len(r.frames)]
	e.off, e.n, e.slot, e.seq, e.kind = off, n, slot, seq, kind
	r.fLen++
	r.aUsed += n
	if slot > r.lastSlot {
		r.lastSlot = slot
	}
	r.mu.Unlock()
}

func (r *Recorder) evictOldestFrameLocked() {
	e := &r.frames[r.fHead]
	r.aStart += e.n
	if r.aStart >= len(r.arena) {
		r.aStart -= len(r.arena)
	}
	r.aUsed -= e.n
	r.fHead = (r.fHead + 1) % len(r.frames)
	r.fLen--
	r.evictedFrames++
}

// RecordWindow captures one released window's decode summary.
//
//csecg:hotpath
func (r *Recorder) RecordWindow(w coordinator.WindowCapture) {
	r.mu.Lock()
	if r.wLen == len(r.windows) {
		r.wHead = (r.wHead + 1) % len(r.windows)
		r.wLen--
		r.evictedWindows++
	}
	r.windows[(r.wHead+r.wLen)%len(r.windows)] = w
	r.wLen++
	r.capturedWindows++
	if w.Slot > r.lastSlot {
		r.lastSlot = w.Slot
	}
	r.mu.Unlock()
}

// RecordHealth captures a receiver health transition.
//
//csecg:hotpath
func (r *Recorder) RecordHealth(slot int, from, to coordinator.Health) {
	r.mu.Lock()
	e := r.pushEventLocked()
	e.kind = eventHealth
	e.slot = slot
	e.a, e.b = int64(from), int64(to)
	r.mu.Unlock()
}

// RecordSLOTransition captures an SLO alert-ladder move (codes are
// monitor.AlertState values: 0 ok, 1 warning, 2 critical).
//
//csecg:hotpath
func (r *Recorder) RecordSLOTransition(timelineNs int64, name string, from, to int64) {
	r.mu.Lock()
	e := r.pushEventLocked()
	e.kind = eventSLO
	e.slot = r.lastSlot
	e.tsNs = timelineNs
	e.a, e.b = from, to
	e.labelLen = uint8(copy(e.label[:], name))
	r.mu.Unlock()
}

// RecordDecodeFailure captures one failed decode attempt. A contained
// panic is an anomaly trigger: the recorder seals a bundle before
// returning (heavier work, so this method is not a noalloc hotpath —
// the receive path only reaches it when a window is already lost).
func (r *Recorder) RecordDecodeFailure(slot int, ordinal int64, seq uint32, panicked bool) {
	r.mu.Lock()
	e := r.pushEventLocked()
	e.kind = eventFailure
	e.slot = slot
	e.ordinal = ordinal
	e.seq = seq
	e.flag = panicked
	if slot > r.lastSlot {
		r.lastSlot = slot
	}
	r.mu.Unlock()
	if panicked {
		r.TriggerSeal(TriggerPanic, 0, "contained decode panic")
	}
}

// RecordSlot notes the receiver's slot counter advancing.
//
//csecg:hotpath
func (r *Recorder) RecordSlot(slot int) {
	r.mu.Lock()
	if slot > r.lastSlot {
		r.lastSlot = slot
	}
	r.mu.Unlock()
}

// pushEventLocked claims the next event ring entry (evicting the oldest
// when full) and returns it zeroed.
func (r *Recorder) pushEventLocked() *event {
	if r.eLen == len(r.events) {
		r.eHead = (r.eHead + 1) % len(r.events)
		r.eLen--
		r.evictedEvents++
	}
	e := &r.events[(r.eHead+r.eLen)%len(r.events)]
	*e = event{}
	r.eLen++
	return e
}

// TriggerSeal is the automatic anomaly path: record the trigger event,
// then seal a bundle unless rate-limited (fewer than RateLimitWindows
// windows captured since the last seal, or MaxBundles reached).
// Returns the sealed bundle's path, or "" when suppressed or the sink
// write failed (the error is retained for SealErr).
func (r *Recorder) TriggerSeal(cause TriggerCause, timelineNs int64, detail string) string {
	path, _ := r.seal(cause, timelineNs, detail, false)
	return path
}

// SealNow seals a bundle on explicit operator request (POST
// /debug/bundle). It bypasses the window-gap rate limit but still
// honors MaxBundles.
func (r *Recorder) SealNow(cause TriggerCause, detail string) (string, error) {
	return r.seal(cause, 0, detail, true)
}

// ErrNoSink reports a seal with nowhere to write.
var ErrNoSink = fmt.Errorf("blackbox: no bundle sink configured")

// ErrSuppressed reports a seal suppressed by rate limiting.
var ErrSuppressed = fmt.Errorf("blackbox: bundle suppressed by rate limit")

func (r *Recorder) seal(cause TriggerCause, timelineNs int64, detail string, manual bool) (string, error) {
	r.mu.Lock()
	allowed := r.sealsStarted < r.cfg.MaxBundles &&
		(manual || !r.sealedAny || r.capturedWindows-r.lastSealWindows >= int64(r.cfg.RateLimitWindows))
	e := r.pushEventLocked()
	e.kind = eventTrigger
	e.slot = r.lastSlot
	e.tsNs = timelineNs
	e.a = int64(cause)
	e.flag = !allowed
	e.labelLen = uint8(copy(e.label[:], detail))
	if !allowed {
		r.suppressed++
		r.mu.Unlock()
		return "", ErrSuppressed
	}
	if r.cfg.Sink == nil {
		r.suppressed++
		r.mu.Unlock()
		return "", ErrNoSink
	}
	ordinal := r.sealsStarted
	r.sealsStarted++
	r.sealedAny = true
	r.lastSealWindows = r.capturedWindows
	b := r.snapshotLocked(cause, timelineNs, detail, ordinal)
	reg := r.reg
	r.inflight.Add(1)
	defer r.inflight.Done()
	r.mu.Unlock()

	// Registry snapshot and sink write run outside the capture mutex:
	// capture never blocks on disk.
	if reg != nil {
		b.Metrics = reg.Snapshot()
	}
	data, err := encodeBundle(b, r.cfg.MaxBundleBytes)
	var path string
	if err == nil {
		path, err = r.cfg.Sink.WriteBundle(bundleName(b.Header), data)
	}
	r.mu.Lock()
	if err != nil {
		if r.sealErr == nil {
			r.sealErr = err
		}
	} else {
		r.bundles = append(r.bundles, path)
	}
	r.mu.Unlock()
	return path, err
}

// snapshotLocked copies the rings into a Bundle (metrics attached by
// the caller after unlocking).
func (r *Recorder) snapshotLocked(cause TriggerCause, timelineNs int64, detail string, ordinal int) *Bundle {
	b := &Bundle{
		Header: Header{
			Version:        BundleVersion,
			Session:        r.meta.Session,
			Ordinal:        ordinal,
			Cause:          cause.String(),
			Detail:         detail,
			TimelineNs:     timelineNs,
			Slot:           r.lastSlot,
			Windows:        r.wLen,
			Frames:         r.fLen,
			Events:         r.eLen,
			Captured:       r.capturedWindows,
			EvictedFrames:  r.evictedFrames + r.oversizeFrames,
			EvictedWindows: r.evictedWindows,
			EvictedEvents:  r.evictedEvents,
			Wrapped:        r.evictedFrames+r.oversizeFrames > 0,
			Meta:           r.meta,
		},
	}
	b.Frames = make([]FrameRecord, r.fLen)
	for i := 0; i < r.fLen; i++ {
		e := &r.frames[(r.fHead+i)%len(r.frames)]
		data := make([]byte, e.n)
		first := len(r.arena) - e.off
		if first > e.n {
			first = e.n
		}
		copy(data, r.arena[e.off:e.off+first])
		copy(data[first:], r.arena[:e.n-first])
		b.Frames[i] = FrameRecord{Slot: e.slot, Seq: e.seq, Kind: e.kind, Data: data}
	}
	b.Windows = make([]coordinator.WindowCapture, r.wLen)
	for i := 0; i < r.wLen; i++ {
		b.Windows[i] = r.windows[(r.wHead+i)%len(r.windows)]
	}
	b.Events = make([]EventRecord, r.eLen)
	for i := 0; i < r.eLen; i++ {
		b.Events[i] = r.events[(r.eHead+i)%len(r.events)].record()
	}
	return b
}

// record converts a ring event to its bundle form.
func (e *event) record() EventRecord {
	rec := EventRecord{
		Slot:       e.slot,
		TimelineNs: e.tsNs,
		Ordinal:    e.ordinal,
		Seq:        e.seq,
		Name:       string(e.label[:e.labelLen]),
	}
	switch e.kind {
	case eventHealth:
		rec.Kind = "health"
		rec.From = coordinator.Health(e.a).String()
		rec.To = coordinator.Health(e.b).String()
	case eventSLO:
		rec.Kind = "slo"
		rec.From = alertName(e.a)
		rec.To = alertName(e.b)
	case eventFailure:
		rec.Kind = "decode-failure"
		rec.Panicked = e.flag
	case eventTrigger:
		rec.Kind = "trigger"
		rec.Cause = TriggerCause(e.a).String()
		rec.Suppressed = e.flag
	}
	return rec
}

// alertName mirrors monitor.AlertState.String without importing monitor
// (monitor imports blackbox).
func alertName(code int64) string {
	switch code {
	case 1:
		return "warning"
	case 2:
		return "critical"
	default:
		return "ok"
	}
}

// Drain blocks until every in-flight seal has finished writing — the
// monitor server calls this from WaitIdle so shutdown never truncates a
// bundle.
func (r *Recorder) Drain() { r.inflight.Wait() }

// Bundles returns the paths of every bundle sealed so far.
func (r *Recorder) Bundles() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.bundles))
	copy(out, r.bundles)
	return out
}

// BundlesWritten returns the count of bundles successfully persisted.
func (r *Recorder) BundlesWritten() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.bundles)
}

// SealErr returns the first sink write or encode error, if any.
func (r *Recorder) SealErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealErr
}

// WindowRecords copies the current window ring, oldest first — the
// replay harness records a fresh session with one of these and diffs.
func (r *Recorder) WindowRecords() []coordinator.WindowCapture {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]coordinator.WindowCapture, r.wLen)
	for i := 0; i < r.wLen; i++ {
		out[i] = r.windows[(r.wHead+i)%len(r.windows)]
	}
	return out
}
