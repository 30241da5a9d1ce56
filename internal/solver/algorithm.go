package solver

// Algorithm names a sparse-recovery method for callers that select the
// solver at run time — the coordinator's degradation ladder switches
// FISTA→GPSR under deadline pressure without plumbing function values
// through its configuration.
type Algorithm uint8

const (
	// AlgoFISTA is the paper's solver.
	AlgoFISTA Algorithm = iota
	// AlgoGPSR is gradient projection for sparse reconstruction — the
	// ladder's fallback: its BB-stepped projected-gradient iterations
	// reach a clinically usable iterate in fewer iterations than FISTA
	// at moderate λ, trading final accuracy for early progress.
	AlgoGPSR
)
