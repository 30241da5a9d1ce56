package telemetry

// Pipeline stage names of the window lifecycle. Every 2-second window
// flows through these stages in order; the causal span trees of span.go
// reuse the names for their depth-1 leaves.
const (
	// StageSample is the 2-second ADC acquisition of the window.
	StageSample = "sample"
	// StageCSSample is the sparse-binary CS measurement (the paper's
	// 82 ms stage) including the rounding shift.
	StageCSSample = "cs-sample"
	// StageDiff is the inter-packet difference stage (zero-length on
	// key frames).
	StageDiff = "diff"
	// StageHuffman is the entropy-coding stage (zero-length on key
	// frames).
	StageHuffman = "huffman"
	// StageTX is packet framing plus radio airtime.
	StageTX = "tx"
	// StageRX marks the frame's arrival at the coordinator.
	StageRX = "rx"
	// StageReassemble is the reorder-buffer hold between arrival and
	// in-order release to the decoder.
	StageReassemble = "reassemble"
	// StageFISTA is the sparse-recovery solve.
	StageFISTA = "fista"
	// StageReconstruct is the inverse transform and requantization that
	// hands samples to the display.
	StageReconstruct = "reconstruct"
)

// Stages lists the per-window lifecycle stages in pipeline order.
func Stages() []string {
	return []string{
		StageSample, StageCSSample, StageDiff, StageHuffman, StageTX,
		StageRX, StageReassemble, StageFISTA, StageReconstruct,
	}
}
