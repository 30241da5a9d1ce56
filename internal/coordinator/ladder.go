package coordinator

import (
	"csecg/internal/solver"
	"csecg/internal/telemetry"
)

// Rung indexes the coordinator's degradation ladder. Under deadline
// pressure the decoder walks down — trading reconstruction quality for
// per-window decode time — and climbs back up once decodes fit the
// budget again. Overload costs quality, never availability.
type Rung int

// Ladder rungs, best first.
const (
	// RungNominal runs the paper's configuration: FISTA (with
	// continuation on cold starts) at the full iteration budget.
	RungNominal Rung = iota
	// RungReducedIter halves the iteration budget, keeping FISTA.
	RungReducedIter
	// RungGPSR switches to GPSR at the halved budget: its BB-stepped
	// projected-gradient iterations make more early progress per
	// iteration at the ladder's operating λ.
	RungGPSR
	// RungBestEffort is the floor: GPSR at a quarter budget. Every
	// window still produces samples — flagged Degraded — so the display
	// never starves.
	RungBestEffort

	numRungs
)

// String names the rung for telemetry and status endpoints.
func (r Rung) String() string {
	switch r {
	case RungNominal:
		return "nominal"
	case RungReducedIter:
		return "reduced-iter"
	case RungGPSR:
		return "gpsr"
	case RungBestEffort:
		return "best-effort"
	}
	return "unknown"
}

// SolverStage names the rung's solver configuration as
// algorithm/iter-divisor ("fista/1", "fista/2", "gpsr/2", "gpsr/4") —
// the depth-1 solver-leaf stage of the causal span trace
// (telemetry.SolverStage*; a test pins the two lists together). The
// strings are constants, so hotpath span capture never allocates.
//
//csecg:hotpath
func (r Rung) SolverStage() string {
	switch r {
	case RungReducedIter:
		return telemetry.SolverStageFISTA2
	case RungGPSR:
		return telemetry.SolverStageGPSR2
	case RungBestEffort:
		return telemetry.SolverStageGPSR4
	}
	return telemetry.SolverStageFISTA1
}

// rungSetting is one rung's solver configuration: the algorithm and the
// divisor applied to the nominal iteration budget.
type rungSetting struct {
	algo    solver.Algorithm
	iterDiv int
}

var rungSettings = [numRungs]rungSetting{
	RungNominal:     {solver.AlgoFISTA, 1},
	RungReducedIter: {solver.AlgoFISTA, 2},
	RungGPSR:        {solver.AlgoGPSR, 2},
	RungBestEffort:  {solver.AlgoGPSR, 4},
}

// Ladder hysteresis: escalate after escalateAfterMisses consecutive
// modeled-deadline misses, de-escalate after deescalateAfterHits
// consecutive hits. The asymmetry keeps the ladder from oscillating
// when load sits near a rung boundary.
const (
	escalateAfterMisses = 2
	deescalateAfterHits = 8
)

// ladder is the per-decoder degradation state machine. With the default
// cost calibration the iteration budget is derived from the real-time
// budget, every decode meets its modeled deadline, and the ladder never
// leaves RungNominal — it engages only when SetCosts models a slowed
// CPU (thermal throttling, contention, the chaos harness).
type ladder struct {
	rung                  Rung
	missStreak, hitStreak int
}

// observe feeds one decode's deadline outcome to the state machine and
// reports whether the rung changed.
func (l *ladder) observe(metDeadline bool) bool {
	if metDeadline {
		l.missStreak = 0
		l.hitStreak++
		if l.hitStreak >= deescalateAfterHits && l.rung > RungNominal {
			l.rung--
			l.hitStreak = 0
			return true
		}
		return false
	}
	l.hitStreak = 0
	l.missStreak++
	if l.missStreak >= escalateAfterMisses && l.rung < numRungs-1 {
		l.rung++
		l.missStreak = 0
		return true
	}
	return false
}
