package solver

import (
	"fmt"

	"csecg/internal/linalg"
)

// Algorithm names a sparse-recovery method for callers that select the
// solver at run time — the coordinator's degradation ladder switches
// FISTA→GPSR under deadline pressure without plumbing function values
// through its configuration.
type Algorithm uint8

const (
	// AlgoFISTA is the paper's solver (with continuation when the
	// caller requests stages > 1).
	AlgoFISTA Algorithm = iota
	// AlgoGPSR is gradient projection for sparse reconstruction — the
	// ladder's fallback: its BB-stepped projected-gradient iterations
	// reach a clinically usable iterate in fewer iterations than FISTA
	// at moderate λ, trading final accuracy for early progress.
	AlgoGPSR
)

// String returns the lower-case solver name used in telemetry labels.
func (a Algorithm) String() string {
	switch a {
	case AlgoFISTA:
		return "fista"
	case AlgoGPSR:
		return "gpsr"
	}
	return fmt.Sprintf("algorithm(%d)", uint8(a))
}

// Solve runs the named algorithm. stages applies continuation to
// AlgoFISTA only (stages ≤ 1, or any other algorithm, runs a single
// stage); GPSR's projected-gradient steps do not need the λ path at the
// ladder's operating points.
func Solve[T linalg.Float](algo Algorithm, a linalg.Op[T], y []T, opt Options[T], stages int) (Result[T], error) {
	switch algo {
	case AlgoFISTA:
		return FISTAContinuation(a, y, opt, stages)
	case AlgoGPSR:
		return GPSR(a, y, opt)
	}
	return Result[T]{}, fmt.Errorf("solver: unknown algorithm %d", uint8(algo))
}
