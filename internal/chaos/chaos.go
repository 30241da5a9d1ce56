// Package chaos is the survival-layer proving ground. It drives the
// session loop (internal/session) at the paper's operating point, with
// the input RunStream gives it: record 100, channel 0, default
// core.Params, 2 s windows. Fault cocktails — bit-flip corruption,
// Gilbert–Elliott burst loss, mote reboots, clock drift, modeled CPU
// slowdown under burst arrival, and injected decode panics — run on
// top, and the report says whether the session survived on the
// layer's contract: zero escaped panics, a bounded admission queue,
// bounded decode time, and health back to decoding by session end.
//
// Every run is deterministic: the signal is the substitute database's
// record, the faults come from the seeded channel model and the
// session's injectors, the clocks are modeled, and nothing reads wall
// time or global randomness. Span trees, when captured, are
// RunStream's: the same timeline, serialized decode core and close
// step.
package chaos

import (
	"fmt"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/ecg"
	"csecg/internal/link"
	"csecg/internal/monitor"
	"csecg/internal/session"
	"csecg/internal/telemetry"
)

// Scenario is one fault cocktail over a monitoring session of record
// 100. The zero value (plus a Name) is a clean run.
type Scenario struct {
	Name string
	// Windows is the session length in 2 s window periods (default 96):
	// the session streams that many windows of the record, and a fast
	// mote clock reaches their end before the last period.
	Windows int

	// Link carries the channel faults of the data downlink: BitFlipProb,
	// DropProb, Burst and ClockDriftPPM. A zero EffectiveBitrate takes
	// link.DefaultConfig's rate and overhead (session.Config); Seed is
	// replaced by the scenario's.
	Link link.Config

	// Transport carries the receiver pressure: QueueLimit bounds the
	// admission queue (default 8) and DecodesPerSlot the decodes per
	// receiver slot (0 = unlimited).
	Transport coordinator.TransportConfig

	// Faults are the mote reboot, CPU slowdown, burst arrival and
	// decode panic injectors.
	session.Faults

	// Seed drives the channel model.
	Seed uint64

	// Record, when non-nil, attaches a black-box flight recorder sized
	// by this config to the receive path, plus a quality SLO tracker
	// whose warn/page escalations trigger bundle seals — the
	// bundle-under-fault proving ground. Scenarios that perturb solver
	// costs mid-run (Slowdown > 1) are marked unreproducible so replay
	// refuses to diff them instead of reporting false divergence.
	Record *blackbox.Config

	// Spans, when non-nil, captures each window's causal span tree on
	// the session timeline, as for RunStream.
	Spans *telemetry.CausalTracer
}

func (s Scenario) withDefaults() Scenario {
	if s.Windows == 0 {
		s.Windows = 96
	}
	if s.Transport.QueueLimit == 0 {
		s.Transport.QueueLimit = 8
	}
	if s.Seed == 0 {
		s.Seed = 0xC4A05
	}
	return s
}

// Report is one scenario's survival accounting: the session report
// plus the survival contract's bounds and the escaped panics.
type Report struct {
	Scenario string
	session.Report
	// QueueLimit is the admission-queue bound the scenario ran with.
	QueueLimit int
	// Bound is the 2 s window period the p99 decode time must stay
	// within (a decode slower than its window's arrival cadence falls
	// behind forever).
	Bound time.Duration
	// EscapedPanics counts panics that crossed the receiver's
	// containment into the harness — the contract requires zero; the
	// ones the receiver absorbed are Transport.DecodePanics. A panic
	// that escapes ends the session, leaving the session report zero.
	EscapedPanics int
	// Bundles lists the diagnostics bundles the flight recorder sealed
	// (empty without Scenario.Record); Recorder is the live recorder so
	// the caller can seal more (e.g. on a contract violation).
	Bundles  []string
	Recorder *blackbox.Recorder
}

// Survived checks the survival contract and returns the first
// violation, or nil when the session degraded gracefully.
func (r *Report) Survived() error {
	switch {
	case r.EscapedPanics != 0:
		return fmt.Errorf("chaos %s: %d panics escaped containment", r.Scenario, r.EscapedPanics)
	case r.Transport.QueuePeak > r.QueueLimit:
		return fmt.Errorf("chaos %s: queue peak %d exceeds limit %d", r.Scenario, r.Transport.QueuePeak, r.QueueLimit)
	case r.Decoded == 0:
		return fmt.Errorf("chaos %s: nothing decoded", r.Scenario)
	case r.P99DecodeTime > r.Bound:
		return fmt.Errorf("chaos %s: p99 decode %v exceeds the %v packet period",
			r.Scenario, r.P99DecodeTime, r.Bound)
	case r.FinalHealth != coordinator.HealthDecoding:
		return fmt.Errorf("chaos %s: final health %v, want decoding", r.Scenario, r.FinalHealth)
	case r.FinalRung != coordinator.RungNominal:
		return fmt.Errorf("chaos %s: ladder stuck at %v", r.Scenario, r.FinalRung)
	}
	return nil
}

// Matrix returns the acceptance scenario set. Short mode shrinks the
// sessions for CI smoke runs; every fault class stays covered.
func Matrix(short bool) []Scenario {
	windows := 96
	if short {
		windows = 36
	}
	burst := &link.BurstConfig{PGoodBad: 0.05, PBadGood: 0.5}
	// Every row runs the control channel: the scheduled key frame comes
	// every 64 windows (128 s), so without NACK and key requests one
	// lost or corrupted frame darkens the stream for minutes.
	nack := coordinator.TransportConfig{NACK: true}
	return []Scenario{
		{Name: "clean", Windows: windows, Transport: nack},
		// ≥1e-4 BER: 8e-4 per byte ≈ 1e-4 per bit.
		{Name: "bitflip", Windows: windows, Transport: nack, Link: link.Config{BitFlipProb: 8e-4}},
		{Name: "burst-loss", Windows: windows, Transport: nack, Link: link.Config{Burst: burst}},
		{Name: "reboot", Windows: windows, Transport: nack, Faults: session.Faults{RebootAt: windows / 2}},
		{Name: "slowdown-burst", Windows: windows,
			Transport: coordinator.TransportConfig{NACK: true, DecodesPerSlot: 4},
			Faults:    session.Faults{Slowdown: 2, BurstArrival: 4}},
		{Name: "panic-inject", Windows: windows, Transport: nack, Faults: session.Faults{PanicEvery: 7}},
		{Name: "clock-drift", Windows: windows, Transport: nack, Link: link.Config{ClockDriftPPM: 30_000}},
		{Name: "kitchen-sink", Windows: windows,
			Link:      link.Config{BitFlipProb: 4e-4, Burst: burst, ClockDriftPPM: 30_000},
			Transport: coordinator.TransportConfig{NACK: true, DecodesPerSlot: 2},
			Faults:    session.Faults{RebootAt: windows / 2, Slowdown: 2, BurstArrival: 2, PanicEvery: 11}},
	}
}

// sloFeed scores each decoded window against the recorded quality SLO.
type sloFeed struct{ slo *monitor.SLO }

func (f *sloFeed) OnWindow(w monitor.WindowStatus) { f.slo.Observe(w.TimelineNs, w.Bad) }

func (f *sloFeed) OnSlot(monitor.SlotStatus) {}

// Run executes one scenario and returns its survival report. An error
// means the harness itself failed (configuration, encode), not that
// the scenario was survived badly — judge that with Report.Survived.
func Run(sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	rec, err := ecg.RecordByID("100")
	if err != nil {
		return nil, err
	}
	samples, err := rec.Channel256(float64(sc.Windows*core.WindowSeconds), 0)
	if err != nil {
		return nil, err
	}
	lcfg := sc.Link
	lcfg.Seed = sc.Seed
	cfg := session.Config{
		Link:      lcfg,
		Transport: sc.Transport,
		Spans:     sc.Spans,
		Clock:     telemetry.NewManualClock(0),
		Faults:    sc.Faults,
		Samples:   samples,
	}
	rep := &Report{Scenario: sc.Name, QueueLimit: sc.Transport.QueueLimit, Bound: core.WindowSeconds * time.Second}
	if sc.Record != nil {
		rcfg := *sc.Record
		if rcfg.Session == "" {
			rcfg.Session = sc.Name
		}
		rep.Recorder = blackbox.NewRecorder(rcfg)
		slo := monitor.NewSLO(monitor.SLOConfig{Name: "quality"}, rcfg.Session, nil, nil)
		monitor.WireRecorder(slo, rep.Recorder)
		cfg.Recorder = rep.Recorder
		cfg.Observer = &sloFeed{slo: slo}
	}

	srep, err := func() (*session.Report, error) {
		// A panic reaching this recover escaped the survival layer.
		defer func() {
			if p := recover(); p != nil {
				rep.EscapedPanics++
			}
		}()
		return session.Run(cfg)
	}()
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	if srep != nil {
		rep.Report = *srep
	}
	if rep.Recorder != nil {
		rep.Bundles = rep.Recorder.Bundles()
	}
	return rep, nil
}
