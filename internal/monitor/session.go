package monitor

import (
	"sync"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/telemetry"
)

// SessionConfig describes one tracked stream.
type SessionConfig struct {
	// Name identifies the session in /sessions and as the Prometheus
	// session label (e.g. the record ID).
	Name string
	// Registry is the stream's telemetry registry — the same one passed
	// to RunStream via StreamConfig.Metrics — so the session can serve
	// its counters and pull latency quantiles.
	Registry *telemetry.Registry
	// QualitySLO and LatencySLO override the default trackers (zero
	// values → defaults; see DefaultQualitySLO/DefaultLatencySLO).
	QualitySLO, LatencySLO SLOConfig
	// LatencyTargetNs is the per-window recovery-latency objective a
	// window must beat to satisfy the latency SLO (default 3 s: one
	// half-window of margin past the paper's 2-second real-time budget
	// plus the pipelined encode/transmit slot).
	LatencyTargetNs int64
	// Recorder is the stream's flight recorder (optional). The session
	// wires SLO transitions into it, and an alert escalation to
	// warning/critical seals a diagnostics bundle.
	Recorder *blackbox.Recorder
	// Spans is the stream's causal span tracer (optional) — the same
	// one passed to RunStream via StreamConfig.Spans. The server renders
	// its csecg_window_stage_seconds exemplar histograms on /metrics,
	// and /sessions links the worst-latency and last-bad windows to
	// their trace IDs.
	Spans *telemetry.CausalTracer
}

// DefaultLatencyTargetNs is the default per-window latency objective.
const DefaultLatencyTargetNs = 3_000_000_000

// Session tracks one stream: it implements Observer, aggregates the
// live status RunStream pushes, and feeds the two SLO trackers. All
// methods are safe for concurrent use — RunStream writes from the
// streaming goroutine while the HTTP server reads.
type Session struct {
	mu  sync.Mutex
	cfg SessionConfig

	windows, bad int
	degraded     int
	sumEst       float64
	worstEst     float64
	last         WindowStatus
	slot         SlotStatus
	finished     bool

	// Trace links for /sessions: the worst-latency window seen so far
	// and the most recent bad/degraded window (0 when tracing is off).
	worstLatencyNs    int64
	worstLatencyTrace uint64
	lastBadTrace      uint64

	quality, latency *SLO
}

// NewSession builds a tracker and registers its SLO metrics on the
// session registry. The JSONL sink (optional) receives alert
// transitions from both SLOs.
func NewSession(cfg SessionConfig, sink interface{ Write([]byte) (int, error) }) *Session {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.QualitySLO.Name == "" {
		cfg.QualitySLO.Name = "quality"
	}
	if cfg.LatencySLO.Name == "" {
		cfg.LatencySLO.Name = "latency"
	}
	if cfg.LatencyTargetNs == 0 {
		cfg.LatencyTargetNs = DefaultLatencyTargetNs
	}
	s := &Session{
		cfg:     cfg,
		quality: NewSLO(cfg.QualitySLO, cfg.Name, cfg.Registry, sink),
		latency: NewSLO(cfg.LatencySLO, cfg.Name, cfg.Registry, sink),
	}
	if rec := cfg.Recorder; rec != nil {
		WireRecorder(s.quality, rec)
		WireRecorder(s.latency, rec)
	}
	return s
}

// WireRecorder connects an SLO tracker to a flight recorder: every
// alert transition is captured as a bundle event, and an escalation to
// warning or critical seals a diagnostics bundle (rate-limited by the
// recorder). Install before streaming starts.
func WireRecorder(s *SLO, rec *blackbox.Recorder) {
	s.SetHook(func(tr Transition, from, to AlertState) {
		rec.RecordSLOTransition(tr.TimelineNs, tr.SLO, int64(from), int64(to))
		// Escalations seal a bundle; recoveries only log the event.
		if to > from && to >= AlertWarning {
			rec.TriggerSeal(blackbox.TriggerSLO, tr.TimelineNs,
				"slo "+tr.SLO+" "+tr.From+"->"+tr.To)
		}
	})
}

// Recorder returns the session's flight recorder (nil when none was
// configured).
func (s *Session) Recorder() *blackbox.Recorder { return s.cfg.Recorder }

// Name returns the session's label.
func (s *Session) Name() string { return s.cfg.Name }

// Registry returns the session's telemetry registry for scraping.
func (s *Session) Registry() *telemetry.Registry { return s.cfg.Registry }

// Spans returns the session's causal span tracer (nil when span tracing
// was not configured).
func (s *Session) Spans() *telemetry.CausalTracer { return s.cfg.Spans }

// OnWindow implements Observer: one decoded window's status.
func (s *Session) OnWindow(w WindowStatus) {
	s.mu.Lock()
	s.windows++
	if w.Bad {
		s.bad++
	}
	if w.Degraded {
		s.degraded++
	}
	s.sumEst += w.EstPRDN
	if w.EstPRDN > s.worstEst {
		s.worstEst = w.EstPRDN
	}
	if w.LatencyNs > s.worstLatencyNs || s.windows == 1 {
		s.worstLatencyNs = w.LatencyNs
		s.worstLatencyTrace = w.TraceID
	}
	if w.Bad || w.Degraded {
		s.lastBadTrace = w.TraceID
	}
	s.last = w
	s.mu.Unlock()
	s.quality.Observe(w.TimelineNs, w.Bad)
	s.latency.Observe(w.TimelineNs, w.LatencyNs > s.cfg.LatencyTargetNs)
}

// OnSlot implements Observer: the per-slot transport snapshot.
func (s *Session) OnSlot(st SlotStatus) {
	s.mu.Lock()
	s.slot = st
	s.mu.Unlock()
}

// Finish marks the stream complete; a finished session no longer
// gates /readyz.
func (s *Session) Finish() {
	s.mu.Lock()
	s.finished = true
	s.mu.Unlock()
}

// Health returns the session's current receiver health. Before the
// first slot snapshot this is HealthStarting.
func (s *Session) Health() coordinator.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slot.Health
}

// Finished reports whether the stream has completed.
func (s *Session) Finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// LatencyQuantiles is the decode-latency percentile triple.
type LatencyQuantiles struct {
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// SessionStatus is the session's JSON snapshot served by /sessions.
type SessionStatus struct {
	Name     string `json:"name"`
	Finished bool   `json:"finished"`
	Health   string `json:"health"`

	Windows     int     `json:"windows"`
	BadWindows  int     `json:"bad_windows"`
	MeanEstPRDN float64 `json:"mean_est_prdn"`
	WorstEst    float64 `json:"worst_est_prdn"`
	LastSeq     uint32  `json:"last_seq"`
	LastEst     float64 `json:"last_est_prdn"`
	// DegradedWindows counts reduced-quality releases (ladder off
	// nominal or deadline-cut solves); LastRung is the degradation
	// rung of the most recent decode.
	DegradedWindows int    `json:"degraded_windows"`
	LastRung        string `json:"last_rung"`

	Decoded    int     `json:"decoded"`
	Abandoned  int     `json:"abandoned"`
	Gaps       int     `json:"gaps"`
	Recoveries int     `json:"recoveries"`
	GapRate    float64 `json:"gap_rate"`

	Latency LatencyQuantiles `json:"latency"`

	// WorstLatencyTraceID and LastBadTraceID are hex causal trace IDs
	// linking the session's worst-latency window and its most recent
	// bad/degraded window into the span tracer's retained trees and the
	// flight recorder's bundles (empty when span tracing is off).
	WorstLatencyTraceID string `json:"worst_latency_trace_id,omitempty"`
	LastBadTraceID      string `json:"last_bad_trace_id,omitempty"`

	QualitySLO Status `json:"quality_slo"`
	LatencySLO Status `json:"latency_slo"`
}

// Snapshot returns the JSON-ready status.
func (s *Session) Snapshot() SessionStatus {
	s.mu.Lock()
	st := SessionStatus{
		Name:            s.cfg.Name,
		Finished:        s.finished,
		Health:          s.slot.Health.String(),
		Windows:         s.windows,
		BadWindows:      s.bad,
		WorstEst:        s.worstEst,
		LastSeq:         s.last.Seq,
		LastEst:         s.last.EstPRDN,
		DegradedWindows: s.degraded,
		LastRung:        s.last.Rung.String(),
		Decoded:         s.slot.Decoded,
		Abandoned:       s.slot.Abandoned,
		Gaps:            s.slot.Gaps,
		Recoveries:      s.slot.Recoveries,
		GapRate:         s.slot.GapRate,

		WorstLatencyTraceID: telemetry.TraceIDString(s.worstLatencyTrace),
		LastBadTraceID:      telemetry.TraceIDString(s.lastBadTrace),
	}
	if s.windows > 0 {
		st.MeanEstPRDN = s.sumEst / float64(s.windows)
	}
	s.mu.Unlock()
	qs := s.cfg.Registry.Histogram("stream_decode_latency_ns").Quantiles(0.50, 0.95, 0.99)
	st.Latency = LatencyQuantiles{P50Ns: qs[0], P95Ns: qs[1], P99Ns: qs[2]}
	st.QualitySLO = s.quality.Snapshot()
	st.LatencySLO = s.latency.Snapshot()
	return st
}
