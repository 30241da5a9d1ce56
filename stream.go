package csecg

import (
	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/monitor"
	"csecg/internal/session"
	"csecg/internal/telemetry"
)

// StreamConfig describes an end-to-end monitoring session: one record
// channel streamed through the instrumented mote, the Bluetooth link and
// the real-time coordinator.
type StreamConfig struct {
	// RecordID selects the substitute-database record (default "100").
	RecordID string
	// Channel selects the lead (0 or 1).
	Channel int
	// Seconds of signal to stream (default 60).
	Seconds float64
	// Params configures the pipeline.
	Params Params
	// Mode selects the coordinator build the cycle model prices. The
	// zero value is ModeVFP, whose iteration budget is the smaller one.
	Mode coordinator.Mode
	// Link configures the data downlink (zero value → DefaultLinkConfig).
	// A nonzero ClockDriftPPM makes the mote's clock run fast: once the
	// accumulated skew crosses a window period, the mote encodes an
	// extra window within that slot, so the record is consumed sooner
	// (LinkStats.DriftSkew reports the skew).
	Link LinkConfig
	// Transport configures the coordinator's fault-tolerant receive
	// path. The zero value reproduces the paper's baseline: losses are
	// ridden out until the next scheduled key frame. Setting
	// Transport.NACK enables the control channel and the mote's bounded
	// retransmit ring.
	Transport TransportConfig
	// ControlLink configures the uplink carrying NACK/key-request
	// control packets (nil → the data-link config with a derived fault
	// seed, so control traffic sees the same channel quality).
	ControlLink *LinkConfig
	// RetransmitRing overrides the mote's retransmit ring size when the
	// NACK protocol is enabled (0 → mote.DefaultRetransmitRing; must
	// fit the MSP430's 10 kB RAM).
	RetransmitRing int
	// Metrics, when non-nil, attaches every pipeline component to the
	// registry: mote/link/transport/coordinator counters and histograms
	// plus the stream-level decode-latency series. It may be shared by
	// several sessions; the report's distribution summaries always
	// cover this session alone.
	Metrics *telemetry.Registry
	// Spans, when non-nil, captures every window's hierarchical causal
	// span tree on the modeled timeline: trace-ID-stamped spans from
	// acquisition end through encode, transmit, per-retransmit attempts,
	// link transit, reorder/queue wait, the solver rung (with
	// continuation sub-stages) and reconstruction — depth-1 leaves tile
	// the end-to-end decode latency exactly. The tracer tail-samples
	// anomalous windows, feeds the csecg_window_stage_seconds exemplar
	// histograms, and seeds the receiver/flight recorder with the same
	// trace IDs (DESIGN.md §14). A RetainAll tracer also turns on the
	// solver's per-iteration trace and keeps up to
	// telemetry.MaxIterPoints downsampled iterations per window — the
	// Chrome trace's counter tracks (telemetry.WriteChromeTrace).
	Spans *telemetry.CausalTracer
	// Clock times the host-side solve for the wall-time histogram
	// (nil → telemetry.WallClock; inject a ManualClock in tests).
	Clock telemetry.Clock
	// Observer, when non-nil, receives live per-window quality/latency
	// status and per-slot transport health on the modeled timeline —
	// the feed behind the monitor plane's /readyz and /sessions.
	Observer monitor.Observer
	// Recorder, when non-nil, is attached to the receive path as the
	// session's black-box flight recorder: it rings recent frames and
	// decode summaries and seals diagnostics bundles on anomaly
	// triggers. RunStream fills in the session metadata a bundle needs
	// for deterministic replay and points the recorder at the session
	// registry.
	Recorder *blackbox.Recorder
}

// StreamReport aggregates a session.
type StreamReport = session.Report

// RunStream executes the full pipeline and returns the session report.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	if cfg.RecordID == "" {
		cfg.RecordID = "100"
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 60
	}
	if cfg.Link.EffectiveBitrate == 0 {
		cfg.Link = DefaultLinkConfig()
	}
	rec, err := RecordByID(cfg.RecordID)
	if err != nil {
		return nil, err
	}
	samples, err := rec.Channel256(cfg.Seconds, cfg.Channel)
	if err != nil {
		return nil, err
	}
	n := cfg.Params.N
	if n == 0 {
		n = WindowSize
	}
	// The record plays out window by window; a drifting mote clock
	// reaches its end before the last slot.
	next := 0
	return session.Run(session.Config{
		Params:         cfg.Params,
		Mode:           cfg.Mode,
		Link:           cfg.Link,
		ControlLink:    cfg.ControlLink,
		Transport:      cfg.Transport,
		RetransmitRing: cfg.RetransmitRing,
		Metrics:        cfg.Metrics,
		Spans:          cfg.Spans,
		Clock:          cfg.Clock,
		Observer:       cfg.Observer,
		Recorder:       cfg.Recorder,
		Slots:          len(samples) / n,
		Window: func(int) []int16 {
			if next+n > len(samples) {
				return nil
			}
			next += n
			return samples[next-n : next]
		},
	})
}
