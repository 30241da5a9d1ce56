package solver

// Algorithm names a sparse-recovery method for callers that select the
// solver at run time through core.Decoder.Algorithm. The coordinator's
// degradation ladder runs FISTA at every rung; GPSR is selected only by
// tests and benchmark comparisons.
type Algorithm uint8

const (
	// AlgoFISTA is the paper's solver.
	AlgoFISTA Algorithm = iota
	// AlgoGPSR is gradient projection for sparse reconstruction, with
	// BB-stepped projected-gradient iterations.
	AlgoGPSR
)
