// Package csecg is a complete Go implementation of the real-time
// compressed-sensing ECG monitoring system of Kanoun, Mamaghanian,
// Khaled and Atienza (DATE 2011): a computationally light CS encoder
// suited to a 16-bit wireless sensor mote, and a real-time FISTA-based
// reconstruction decoder suited to a smartphone-class WBSN coordinator.
//
// The pipeline compresses 2-second windows (512 samples at 256 Hz) in
// three integer-only stages — sparse binary CS measurement, inter-packet
// redundancy removal, canonical length-limited Huffman coding — and
// reconstructs them by solving min ‖α‖₁ s.t. ‖ΦΨα − y‖₂ ≤ σ with FISTA
// over a matrix-free ΦΨ operator (Φ a sparse binary sensing matrix, Ψ an
// orthonormal Daubechies wavelet basis).
//
// Quick start:
//
//	params := csecg.Params{Seed: 42, M: csecg.MForCR(50, csecg.WindowSize)}
//	enc, _ := csecg.NewEncoder(params)
//	dec, _ := csecg.NewDecoder32(params)
//	pkt, _ := enc.EncodeWindow(window)   // []int16, 512 raw ADC samples
//	out, _ := dec.DecodePacket(pkt)      // out.Samples is the reconstruction
//
// Evaluation data comes from a deterministic synthetic substitute for
// the MIT-BIH Arrhythmia Database (see Database), and platform behaviour
// (MSP430-class mote cycles/memory, Cortex-A8 VFP/NEON decode time,
// Bluetooth airtime, battery lifetime) is modeled by the Mote,
// coordinator and energy APIs. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-versus-measured record.
package csecg

import (
	"io"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/ecg"
	"csecg/internal/energy"
	"csecg/internal/huffman"
	"csecg/internal/link"
	"csecg/internal/metrics"
	"csecg/internal/mote"
	"csecg/internal/telemetry"
)

// Pipeline constants (see the paper, Section IV).
const (
	// FsMote is the encoder's input sample rate in Hz.
	FsMote = core.FsMote
	// WindowSize is the samples per packet (2 seconds at 256 Hz).
	WindowSize = core.WindowSize
	// DefaultColumnWeight is the sensing matrix column weight d = 12.
	DefaultColumnWeight = core.DefaultColumnWeight
)

// Core pipeline types.
type (
	// Params configures an encoder/decoder pair; both sides must agree.
	Params = core.Params
	// Packet is one encoded 2-second window.
	Packet = core.Packet
	// Encoder is the mote-side integer-only compressor.
	Encoder = core.Encoder
	// Decoder32 is the float32 (smartphone-class) decoder.
	Decoder32 = core.Decoder[float32]
	// Decoder64 is the float64 (workstation reference) decoder.
	Decoder64 = core.Decoder[float64]
	// Codebook is a canonical length-limited Huffman codebook.
	Codebook = huffman.Codebook
)

// Packet kinds. KindKey and KindDelta carry data downlink; KindNack and
// KindKeyRequest are the transport's uplink control packets.
const (
	KindKey        = core.KindKey
	KindDelta      = core.KindDelta
	KindNack       = core.KindNack
	KindKeyRequest = core.KindKeyRequest
)

// MaxNackRange caps the windows one NACK may request — the mote's
// retransmit ring can never usefully exceed it.
const MaxNackRange = core.MaxNackRange

// NewNack builds a control packet requesting retransmission of count
// windows starting at firstSeq.
func NewNack(firstSeq uint32, count int) *Packet { return core.NewNack(firstSeq, count) }

// NackRange parses a NACK's requested window range.
func NackRange(p *Packet) (uint32, int, error) { return core.NackRange(p) }

// NewKeyRequest builds a control packet asking the mote to promote its
// next window to a key frame.
func NewKeyRequest(nextSeq uint32) *Packet { return core.NewKeyRequest(nextSeq) }

// NewEncoder builds the mote-side encoder.
func NewEncoder(p Params) (*Encoder, error) { return core.NewEncoder(p) }

// NewDecoder32 builds the float32 decoder (the paper's iPhone build).
func NewDecoder32(p Params) (*Decoder32, error) { return core.NewDecoder[float32](p) }

// NewDecoder64 builds the float64 decoder (the paper's Matlab reference).
func NewDecoder64(p Params) (*Decoder64, error) { return core.NewDecoder[float64](p) }

// MarshalPacket serializes a packet for the wire.
func MarshalPacket(p *Packet) ([]byte, error) { return p.Marshal() }

// UnmarshalPacket parses one packet, returning it and the bytes consumed.
func UnmarshalPacket(data []byte) (*Packet, int, error) { return core.UnmarshalPacket(data) }

// TrainCodebook builds a Huffman codebook from a difference-symbol
// histogram over the 512-symbol alphabet (see DiffHistogramModel for the
// stock shape).
func TrainCodebook(freq []int) (*Codebook, error) { return huffman.Train(freq) }

// DiffHistogramModel returns the two-sided-geometric model histogram the
// stock codebook is trained on.
func DiffHistogramModel(scale float64) []int { return core.DiffHistogramModel(scale) }

// Evaluation data: the MIT-BIH substitute.
type (
	// Record is one synthetic database record.
	Record = ecg.Record
	// RecordConfig parameterizes signal synthesis.
	RecordConfig = ecg.Config
	// Signal is a rendered two-channel segment.
	Signal = ecg.Signal
	// Annotation marks one synthesized beat.
	Annotation = ecg.Annotation
)

// Database returns the 48-record substitute for the MIT-BIH Arrhythmia
// Database (deterministic, generated on demand).
func Database() []Record { return ecg.Database() }

// RecordByID fetches one substitute record ("100".."234").
func RecordByID(id string) (Record, error) { return ecg.RecordByID(id) }

// Metrics of Section III.
var (
	// CR is the compression ratio of Eq. (7) from bit counts.
	CR = metrics.CR
	// MForCR converts a target CS compression ratio into a measurement
	// count for length-n windows.
	MForCR = metrics.MForCR
	// PRD is the percentage root-mean-square difference.
	PRD = metrics.PRD
	// PRDN is the mean-removed PRD.
	PRDN = metrics.PRDN
	// SNR converts PRD to the paper's output SNR in dB.
	SNR = metrics.SNR
)

// Platform models.
type (
	// Mote is the instrumented MSP430-class encoder model.
	Mote = mote.Model
	// MoteReport is the per-window cost report.
	MoteReport = mote.Report
	// RealTimeDecoder is the Cortex-A8-class decoder model.
	RealTimeDecoder = coordinator.RealTimeDecoder
	// Link is the Bluetooth transport model.
	Link = link.Link
	// LinkConfig configures it.
	LinkConfig = link.Config
	// LinkStats snapshots the link's fault-injection counters.
	LinkStats = link.Stats
	// BurstConfig parameterizes the Gilbert–Elliott burst-loss channel.
	BurstConfig = link.BurstConfig
	// TransportConfig tunes the coordinator's fault-tolerant receive
	// path (reorder buffering, NACK resync, retry backoff).
	TransportConfig = coordinator.TransportConfig
	// TransportStats reports gap/resync accounting for a session.
	TransportStats = coordinator.TransportStats
	// Receiver is the coordinator's transport endpoint.
	Receiver = coordinator.Receiver
	// TransportDecoded pairs a released window with its sequence number.
	TransportDecoded = coordinator.Decoded
	// EnergyBudget is the battery/current model.
	EnergyBudget = energy.Budget
	// EnergyLoad is one radio/CPU duty operating point.
	EnergyLoad = energy.Load
)

// Coordinator execution modes.
const (
	// ModeVFP is the scalar floating-point build.
	ModeVFP = coordinator.VFP
	// ModeNEON is the SIMD-optimized build (2.43× faster end to end).
	ModeNEON = coordinator.NEON
)

// NewMote builds the instrumented mote encoder.
func NewMote(p Params) (*Mote, error) { return mote.New(p) }

// NewRealTimeDecoder builds the platform decoder with the mode's
// real-time iteration budget.
func NewRealTimeDecoder(p Params, mode coordinator.Mode) (*RealTimeDecoder, error) {
	return coordinator.NewRealTimeDecoder(p, mode)
}

// NewLink builds a Bluetooth-class transport.
func NewLink(cfg LinkConfig) (*Link, error) { return link.New(cfg) }

// NewReceiver builds the coordinator's fault-tolerant transport
// endpoint around a platform decoder.
func NewReceiver(dec *RealTimeDecoder, cfg TransportConfig) *Receiver {
	return coordinator.NewReceiver(dec, cfg)
}

// DefaultLinkConfig returns a clean 90 kbit/s serial-profile link.
func DefaultLinkConfig() LinkConfig { return link.DefaultConfig() }

// DefaultEnergyBudget returns Shimmer-class battery constants.
func DefaultEnergyBudget() EnergyBudget { return energy.DefaultBudget() }

// Observability: zero-alloc integer counters and histograms and their
// Prometheus text export. Tracing is the causal span trees below.
type (
	// Metrics is a registry of integer-only counters, gauges and
	// log-bucketed histograms; recording is lock- and allocation-free.
	Metrics = telemetry.Registry
	// TelemetrySummary condenses a histogram: count, sum, max and the
	// interpolated p50/p95/p99.
	TelemetrySummary = telemetry.Summary
	// Clock supplies injectable nanosecond timestamps; all telemetry
	// timing goes through it so tests get bit-identical traces.
	Clock = telemetry.Clock
	// ManualClock is a settable test Clock.
	ManualClock = telemetry.ManualClock
)

// NewMetrics builds an empty telemetry registry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// NewManualClock returns a manual clock starting at the given tick.
func NewManualClock(start int64) *ManualClock { return telemetry.NewManualClock(start) }

// WriteMetrics dumps a registry in the Prometheus text format.
func WriteMetrics(w io.Writer, m *Metrics) error { return telemetry.WritePrometheus(w, m) }

// PipelineStages lists the per-window lifecycle stage names in pipeline
// order (sample … reconstruct), the keys of StreamReport.Stages.
func PipelineStages() []string { return telemetry.Stages() }

// Causal span tracing: hierarchical per-window span trees with tail
// sampling and critical-path attribution (DESIGN.md §14).
type (
	// SpanTracer captures one session's causal window span trees;
	// attach via StreamConfig.Spans and feed the retained trees to
	// csecg-triage (SpanTraceRecord JSONL).
	SpanTracer = telemetry.CausalTracer
	// SpanTracerConfig sizes a SpanTracer.
	SpanTracerConfig = telemetry.CausalConfig
	// SpanTraceRecord is one window's span tree in the JSONL trace
	// interchange format.
	SpanTraceRecord = telemetry.TraceRecord
)

// NewSpanTracer builds a causal span tracer (every buffer preallocated;
// capture is zero-alloc).
func NewSpanTracer(cfg SpanTracerConfig) *SpanTracer { return telemetry.NewCausalTracer(cfg) }

// WriteSpanTraceJSONL writes span-tree records one JSON object per line
// — the csecg-triage input format.
func WriteSpanTraceJSONL(w io.Writer, recs []SpanTraceRecord) error {
	return telemetry.WriteTraceRecords(w, recs)
}

// ReadSpanTraceJSONL parses a span-tree JSONL stream.
func ReadSpanTraceJSONL(r io.Reader) ([]SpanTraceRecord, error) {
	return telemetry.ReadTraceRecords(r)
}

// WriteChromeTrace renders span-tree records as Chrome trace_event
// JSON, loadable in chrome://tracing or Perfetto: per-session mote,
// link and coordinator tracks, a flow arrow per window, and the solver
// counter tracks of RetainAll captures.
func WriteChromeTrace(w io.Writer, recs []SpanTraceRecord) error {
	return telemetry.WriteChromeTrace(w, recs)
}

// Incident forensics: the black-box flight recorder, its sealed
// diagnostics bundles, and the deterministic replay harness.
type (
	// FlightRecorder rings recent session history (raw frames, decode
	// summaries, health/SLO events) and seals diagnostics bundles on
	// anomaly triggers; attach one via StreamConfig.Recorder.
	FlightRecorder = blackbox.Recorder
	// FlightRecorderConfig sizes a recorder's rings and rate limits.
	FlightRecorderConfig = blackbox.Config
	// DiagnosticsBundle is a parsed bundle.
	DiagnosticsBundle = blackbox.Bundle
	// BundleReplayReport is the outcome of replaying a bundle.
	BundleReplayReport = blackbox.ReplayReport
)

// NewFlightRecorder builds a black-box flight recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return blackbox.NewRecorder(cfg)
}

// BundleDirSink returns a bundle sink writing files into dir.
func BundleDirSink(dir string) blackbox.Sink { return blackbox.DirSink(dir) }

// ReadBundle loads and parses a diagnostics bundle file.
func ReadBundle(path string) (*DiagnosticsBundle, error) { return blackbox.ReadBundleFile(path) }

// ReplayBundle feeds a bundle's raw frames back through a freshly built
// receiver and solver stack and diffs the per-window results against
// the recorded summaries.
func ReplayBundle(b *DiagnosticsBundle) (*BundleReplayReport, error) { return blackbox.Replay(b) }
