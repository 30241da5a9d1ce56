// Package chaos is the survival-layer proving ground: it drives the
// session loop (internal/session) through fault cocktails — bit-flip
// corruption, Gilbert–Elliott burst loss, mote reboots, clock drift,
// modeled CPU slowdown under burst arrival, and injected decode panics
// — and reports whether the session survived on the layer's contract:
// zero escaped panics, a bounded admission queue, bounded decode time,
// and health back to decoding by session end.
//
// Every run is deterministic: the faults come from the seeded channel
// model and the session's injectors, the clocks are modeled, and
// nothing reads wall time or global randomness. Span trees, when
// captured, are RunStream's: the same timeline, serialized decode core
// and close step.
package chaos

import (
	"fmt"
	"math"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/link"
	"csecg/internal/monitor"
	"csecg/internal/rng"
	"csecg/internal/session"
	"csecg/internal/telemetry"
)

// Scenario is one fault cocktail over a synthetic monitoring session.
// The zero value (plus a Name) is a clean run.
type Scenario struct {
	Name string
	// Windows is the session length in window periods (default 96).
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

	// Seed drives the channel model and the signal synthesizer.
	Seed uint64

	// Record, when non-nil, attaches a black-box flight recorder sized
	// by this config to the receive path, plus a quality SLO tracker
	// whose warn/page escalations trigger bundle seals — the
	// bundle-under-fault proving ground. Scenarios that perturb solver
	// costs mid-run (Slowdown > 1) are marked unreproducible so replay
	// refuses to diff them instead of reporting false divergence.
	Record *blackbox.Config

	// QualityBadPRDN overrides the paper's 9 % good/bad boundary for the
	// recorded quality SLO (0 = keep the decoder's Bad verdict) and is
	// compared with the ground-truth-free PRDN estimate. On the
	// synthetic N = 128 chaos signal that estimate under-reads about 5×
	// (a clean short matrix estimates 3.84 % mean PRDN where the true
	// figure is 19.57 %), so the decoder's Bad verdict almost never
	// fires even though the signal reconstructs well outside the
	// boundary. Scenarios proving the SLO→bundle trigger wiring
	// therefore set an objective below the estimate's range, so that
	// fault-induced erosion — the gap-rate margin on the estimate —
	// registers as burn.
	QualityBadPRDN float64

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
	// Bound is the window period the p99 decode time must stay within
	// (a decode slower than its window's arrival cadence falls behind
	// forever).
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
	return []Scenario{
		{Name: "clean", Windows: windows},
		// ≥1e-4 BER: 8e-4 per byte ≈ 1e-4 per bit.
		{Name: "bitflip", Windows: windows, Link: link.Config{BitFlipProb: 8e-4}},
		{Name: "burst-loss", Windows: windows, Link: link.Config{Burst: burst}},
		{Name: "reboot", Windows: windows, Faults: session.Faults{RebootAt: windows / 2}},
		{Name: "slowdown-burst", Windows: windows,
			Transport: coordinator.TransportConfig{DecodesPerSlot: 4},
			Faults:    session.Faults{Slowdown: 2, BurstArrival: 4}},
		{Name: "panic-inject", Windows: windows, Faults: session.Faults{PanicEvery: 7}},
		{Name: "clock-drift", Windows: windows, Link: link.Config{ClockDriftPPM: 30_000}},
		{Name: "kitchen-sink", Windows: windows,
			Link:      link.Config{BitFlipProb: 4e-4, Burst: burst, ClockDriftPPM: 30_000},
			Transport: coordinator.TransportConfig{DecodesPerSlot: 2},
			Faults:    session.Faults{RebootAt: windows / 2, Slowdown: 2, BurstArrival: 2, PanicEvery: 11}},
	}
}

// synthWindow renders a deterministic ECG-like window: baseline
// wander, a sinus component, one QRS-like spike per second, and mild
// sensor noise from the seeded generator.
func synthWindow(w, n int, rg *rng.Xoshiro) []int16 {
	win := make([]int16, n)
	for i := range win {
		t := float64(w*n + i)
		v := 1000 + 120*math.Sin(2*math.Pi*t/600) + 40*math.Sin(2*math.Pi*t/37)
		if i%core.FsMote == core.FsMote/3 {
			v += 900 // R peak
		}
		v += 8 * rg.NormFloat64()
		win[i] = int16(v)
	}
	return win
}

// sloFeed scores each decoded window against the recorded quality SLO.
type sloFeed struct {
	slo     *monitor.SLO
	badPRDN float64
}

func (f *sloFeed) OnWindow(w monitor.WindowStatus) {
	bad := w.Bad
	if f.badPRDN > 0 {
		bad = w.EstPRDN > f.badPRDN
	}
	f.slo.Observe(w.TimelineNs, bad)
}

func (f *sloFeed) OnSlot(monitor.SlotStatus) {}

// Run executes one scenario and returns its survival report. An error
// means the harness itself failed (configuration, encode), not that
// the scenario was survived badly — judge that with Report.Survived.
func Run(sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	params := core.Params{Seed: 0x31, M: 64, N: 128, WaveletLevels: 3, KeyFrameInterval: 8}
	window := time.Duration(float64(params.N) / core.FsMote * float64(time.Second))
	lcfg := sc.Link
	lcfg.Seed = sc.Seed
	rg := rng.New(sc.Seed ^ 0xEC6)
	cfg := session.Config{
		Params:    params,
		Mode:      coordinator.VFP,
		Link:      lcfg,
		Transport: sc.Transport,
		Spans:     sc.Spans,
		Clock:     telemetry.NewManualClock(0),
		Faults:    sc.Faults,
		Slots:     sc.Windows,
		Window:    func(w int) []int16 { return synthWindow(w, params.N, rg) },
	}
	rep := &Report{Scenario: sc.Name, QueueLimit: sc.Transport.QueueLimit, Bound: window}
	if sc.Record != nil {
		rcfg := *sc.Record
		if rcfg.Session == "" {
			rcfg.Session = sc.Name
		}
		rep.Recorder = blackbox.NewRecorder(rcfg)
		slo := monitor.NewSLO(monitor.SLOConfig{Name: "quality"}, rcfg.Session, nil, nil)
		monitor.WireRecorder(slo, rep.Recorder)
		cfg.Recorder = rep.Recorder
		cfg.Observer = &sloFeed{slo: slo, badPRDN: sc.QualityBadPRDN}
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
