package coordinator

import (
	"csecg/internal/core"
	"csecg/internal/telemetry"
)

// Rung indexes the coordinator's degradation ladder: FISTA at 1, 1/2
// and 1/4 of the nominal iteration budget. The rung is a function of
// the cost model (see rungFor): when the modeled CPU slows so that the
// nominal budget no longer fits the real-time budget, the decoder runs
// fewer iterations — trading reconstruction quality for per-window
// decode time. Overload costs quality, never availability.
type Rung int

// Ladder rungs, best first.
const (
	// RungNominal runs the paper's configuration: FISTA (with
	// continuation on cold starts) at the full iteration budget.
	RungNominal Rung = iota
	// RungReducedIter halves the iteration budget.
	RungReducedIter
	// RungBestEffort is the floor: a quarter budget. Every window still
	// produces samples — flagged Degraded — so the display never
	// starves.
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
	case RungBestEffort:
		return "best-effort"
	}
	return "unknown"
}

// SolverStage names the rung's solver configuration as
// algorithm/iter-divisor ("fista/1", "fista/2", "fista/4") — the
// depth-1 solver-leaf stage of the causal span trace
// (telemetry.SolverStage*; a test pins the two lists together). The
// strings are constants, so hotpath span capture never allocates.
//
//csecg:hotpath
func (r Rung) SolverStage() string {
	switch r {
	case RungReducedIter:
		return telemetry.SolverStageFISTA2
	case RungBestEffort:
		return telemetry.SolverStageFISTA4
	}
	return telemetry.SolverStageFISTA1
}

// iterDiv is the divisor each rung applies to the nominal iteration
// budget.
var iterDiv = [numRungs]int{RungNominal: 1, RungReducedIter: 2, RungBestEffort: 4}

// rungFor returns the first rung whose iteration cap baseMaxIter/div
// fits the iteration budget the cost model allows; RungBestEffort is
// the floor. Under the default costs the cap is that budget, so the
// rung is RungNominal.
func rungFor(c CostModel, p core.Params, mode Mode, baseMaxIter int) Rung {
	budget := c.IterationBudget(p, mode)
	for r := RungNominal; r < RungBestEffort; r++ {
		if baseMaxIter/iterDiv[r] <= budget {
			return r
		}
	}
	return RungBestEffort
}
