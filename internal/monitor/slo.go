package monitor

import (
	"encoding/json"
	"io"
	"sync"

	"csecg/internal/telemetry"
)

// AlertState is an SLO's alert ladder position.
type AlertState int

// Alert states, ordered by severity.
const (
	AlertOK AlertState = iota
	AlertWarning
	AlertCritical
)

// String names the state.
func (a AlertState) String() string {
	switch a {
	case AlertWarning:
		return "warning"
	case AlertCritical:
		return "critical"
	default:
		return "ok"
	}
}

// SLOConfig parameterizes one windowed burn-rate tracker.
type SLOConfig struct {
	// Name labels the SLO in metrics and transition events
	// (e.g. "quality", "latency").
	Name string
	// Budget is the allowed violation fraction over the window
	// (default 0.05 — mirroring "≤ 5 % of windows may estimate bad").
	Budget float64
	// Window is the sliding observation count the burn rate is computed
	// over (default 30, i.e. one minute of 2-second windows).
	Window int
	// WarnBurn and PageBurn are the burn-rate thresholds for the
	// warning and critical states (defaults 1 and 2: consuming budget
	// exactly on schedule warns, twice as fast pages).
	WarnBurn, PageBurn float64
	// MinSamples suppresses alerts until the window has at least this
	// many observations (default Window/4), so the first bad window of
	// a session cannot page by itself.
	MinSamples int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Budget == 0 {
		c.Budget = 0.05
	}
	if c.Window == 0 {
		c.Window = 30
	}
	if c.WarnBurn == 0 {
		c.WarnBurn = 1
	}
	if c.PageBurn == 0 {
		c.PageBurn = 2
	}
	if c.MinSamples == 0 {
		c.MinSamples = (c.Window + 3) / 4
	}
	return c
}

// Transition is one alert state change, emitted as a JSONL event.
type Transition struct {
	// TimelineNs is the modeled session time of the transition.
	TimelineNs int64 `json:"ts_ns"`
	// Session and SLO identify the tracker.
	Session string `json:"session,omitempty"`
	SLO     string `json:"slo"`
	// From and To are the alert states; Burn the burn rate that caused
	// the change; Violations/Samples the window contents behind it.
	From       string  `json:"from"`
	To         string  `json:"to"`
	Burn       float64 `json:"burn"`
	Violations int     `json:"violations"`
	Samples    int     `json:"samples"`
}

// SLO is a windowed burn-rate tracker over a boolean violation stream.
// Observe is called once per window from the streaming goroutine;
// State/BurnRate/Transitions may be read concurrently.
type SLO struct {
	mu      sync.Mutex
	cfg     SLOConfig
	session string

	ring       []bool
	idx, n     int
	violations int
	state      AlertState

	sink    io.Writer // JSONL transition log (nil → none)
	sinkErr error
	hook    func(tr Transition, from, to AlertState)

	stateGauge, burnGauge *telemetry.Gauge
	transitions           *telemetry.Counter
	nTransitions          int
}

// NewSLO builds a tracker. The registry (optional) receives
// slo_<name>_alert_state and slo_<name>_burn_milli gauges plus a
// slo_<name>_transitions_total counter; sink (optional) receives one
// JSON line per alert transition.
func NewSLO(cfg SLOConfig, session string, reg *telemetry.Registry, sink io.Writer) *SLO {
	cfg = cfg.withDefaults()
	s := &SLO{cfg: cfg, session: session, ring: make([]bool, cfg.Window), sink: sink}
	if reg != nil {
		s.stateGauge = reg.Gauge("slo_" + cfg.Name + "_alert_state")
		s.burnGauge = reg.Gauge("slo_" + cfg.Name + "_burn_milli")
		s.transitions = reg.Counter("slo_" + cfg.Name + "_transitions_total")
		reg.SetHelp("slo_"+cfg.Name+"_alert_state", "alert ladder position: 0 ok, 1 warning, 2 critical")
		reg.SetHelp("slo_"+cfg.Name+"_burn_milli", "error-budget burn rate x1000 over the sliding window")
		reg.SetHelp("slo_"+cfg.Name+"_transitions_total", "alert state changes")
	}
	return s
}

// SetHook installs a transition callback — the flight-recorder trigger
// path. It runs outside the tracker mutex, after the transition is
// committed, on the observing goroutine. Install before streaming
// starts; the field is not synchronized against concurrent Observe.
func (s *SLO) SetHook(fn func(tr Transition, from, to AlertState)) { s.hook = fn }

// Observe records one window's outcome at the given modeled time and
// re-evaluates the alert state. The transition sink write happens
// outside the critical section: a slow JSONL flush must not stall
// every State/Burn reader behind the mutex.
func (s *SLO) Observe(timelineNs int64, violated bool) {
	s.mu.Lock()
	if s.n == len(s.ring) {
		if s.ring[s.idx] {
			s.violations--
		}
	} else {
		s.n++
	}
	s.ring[s.idx] = violated
	if violated {
		s.violations++
	}
	s.idx = (s.idx + 1) % len(s.ring)

	burn := s.burnLocked()
	if s.burnGauge != nil {
		s.burnGauge.Set(int64(burn * 1000))
	}
	next := s.state
	if s.n >= s.cfg.MinSamples {
		switch {
		case burn >= s.cfg.PageBurn:
			next = AlertCritical
		case burn >= s.cfg.WarnBurn:
			next = AlertWarning
		default:
			next = AlertOK
		}
	}
	if next == s.state {
		s.mu.Unlock()
		return
	}
	from := s.state
	tr := Transition{
		TimelineNs: timelineNs,
		Session:    s.session,
		SLO:        s.cfg.Name,
		From:       s.state.String(),
		To:         next.String(),
		Burn:       burn,
		Violations: s.violations,
		Samples:    s.n,
	}
	s.state = next
	s.nTransitions++
	if s.stateGauge != nil {
		s.stateGauge.Set(int64(next))
	}
	if s.transitions != nil {
		s.transitions.Inc()
	}
	sink := s.sink
	hook := s.hook
	s.mu.Unlock()

	if hook != nil {
		hook(tr, from, next)
	}
	if sink == nil {
		return
	}
	// Encode performs a single Write per record, so concurrent
	// transitions interleave as whole JSONL lines, never partial ones.
	if err := json.NewEncoder(sink).Encode(&tr); err != nil {
		s.mu.Lock()
		if s.sinkErr == nil {
			s.sinkErr = err
		}
		s.mu.Unlock()
	}
}

// burnLocked computes violationFraction / budget over the window.
func (s *SLO) burnLocked() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.violations) / float64(s.n) / s.cfg.Budget
}

// Status is the SLO's JSON snapshot for /sessions.
type Status struct {
	State       string  `json:"state"`
	Burn        float64 `json:"burn"`
	Violations  int     `json:"violations"`
	Samples     int     `json:"samples"`
	Budget      float64 `json:"budget"`
	Transitions int     `json:"transitions"`
	// SinkError is the first transition-log write failure, if any.
	SinkError string `json:"sink_error,omitempty"`
}

// Snapshot returns the JSON status.
func (s *SLO) Snapshot() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		State:       s.state.String(),
		Burn:        s.burnLocked(),
		Violations:  s.violations,
		Samples:     s.n,
		Budget:      s.cfg.Budget,
		Transitions: s.nTransitions,
	}
	if s.sinkErr != nil {
		st.SinkError = s.sinkErr.Error()
	}
	return st
}
