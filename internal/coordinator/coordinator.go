// Package coordinator models the decoder-side platform: an iPhone
// 3GS-class WBSN coordinator (ARM Cortex-A8 at 600 MHz) running the
// float32 FISTA reconstruction in real time.
//
// The reconstruction itself is executed by internal/core at genuine
// float32 precision; this package adds the platform bookkeeping the
// paper evaluates:
//
//   - a calibrated cycle model for the solver's multiply-accumulate
//     traffic under the scalar VFP unit versus the NEON SIMD engine
//     (the paper's measured end-to-end gain of the Section IV-B
//     vectorization work is 2.43× at CR = 50);
//   - the real-time iteration budget: reconstruction may spend at most
//     half the packet period (1 second per 2-second packet), which admits
//     ≈800 iterations on the VFP path and ≈2000 on the NEON path;
//   - the producer-consumer display application: a 6-second shared
//     sample buffer (2 s being decoded + 2 s being drawn + 2 s of
//     display latency) drained 4 pixels every 15 ms.
package coordinator

import (
	"fmt"
	"time"

	"csecg/internal/core"
	"csecg/internal/solver"
	"csecg/internal/telemetry"
)

// ClockHz is the Cortex-A8 clock of the iPhone 3GS.
const ClockHz = 600e6

// RealTimeBudget is the decode-time allowance per packet: half the
// packet period N / FsMote, the paper's 1 s of compute per 2-second
// packet at N = 512.
func RealTimeBudget(p core.Params) time.Duration {
	n := p.N
	if n == 0 {
		n = core.WindowSize
	}
	return time.Duration(float64(n) / core.FsMote / 2 * float64(time.Second))
}

// Mode selects the floating-point execution model.
type Mode int

// Execution modes.
const (
	// VFP is the scalar Vector Floating Point unit: a single-precision
	// multiply-accumulate occupies 18-21 cycles (non-pipelined).
	VFP Mode = iota
	// NEON is the 4-wide SIMD engine programmed with the Section IV-B
	// vectorization techniques (loop peeling, if-conversion, outer-loop
	// vectorization).
	NEON
)

// String names the mode.
func (m Mode) String() string {
	if m == NEON {
		return "NEON"
	}
	return "VFP"
}

// CostModel is the effective per-MAC cycle cost of the FISTA inner
// loops, including address generation and load/store traffic (which is
// why the NEON figure is far above the theoretical 0.5 cycles/MAC: the
// engine retires 2 MACs per cycle but the loops are memory-bound). The
// defaults are calibrated to the paper's two anchors: ≈800 VFP
// iterations fit the 1-second budget, and the NEON path is 2.43× faster.
type CostModel struct {
	VFPCyclesPerMAC  float64
	NEONCyclesPerMAC float64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{VFPCyclesPerMAC: 23.0, NEONCyclesPerMAC: 23.0 / 2.43}
}

// MACsPerIteration counts the multiply-accumulate operations of one
// FISTA iteration for the given pipeline parameters: one operator apply
// and one adjoint apply (each a wavelet filter-bank pass plus a sparse
// measurement pass) plus the vector arithmetic of the prox, momentum,
// restart and stopping-rule steps.
func MACsPerIteration(p core.Params) int64 {
	n := int64(p.N)
	if n == 0 {
		n = core.WindowSize
	}
	m := int64(p.M)
	if m == 0 {
		m = n / 2
	}
	d := int64(p.D)
	if d == 0 {
		d = core.DefaultColumnWeight
	}
	var basisMACs int64
	if p.Basis == core.BasisDCT {
		// Dense orthonormal DCT: N² MACs per transform pass.
		basisMACs = n * n
	} else {
		order := int64(p.WaveletOrder)
		if order == 0 {
			order = core.DefaultWaveletOrder
		}
		levels := p.WaveletLevels
		if levels == 0 {
			levels = core.DefaultWaveletLevels
		}
		filterLen := 2 * order
		// Filter-bank MACs: each level processes a block of n_j samples
		// at filterLen MACs per sample (low and high band together);
		// Σ n_j = 2N − N/2^{levels−1}.
		blockSum := 2*n - n>>uint(levels-1)
		basisMACs = blockSum * filterLen
	}
	sparseMACs := n * d
	gradient := 2 * (basisMACs + sparseMACs) // apply + adjoint
	// m for the residual; per coefficient, 7 for the gradient step, prox,
	// momentum and stopping-rule norms plus 1 for the restart product.
	vectorOps := 8*n + m
	return gradient + vectorOps
}

// IterationTime returns the modeled wall time of one FISTA iteration.
func (c CostModel) IterationTime(p core.Params, mode Mode) time.Duration {
	per := c.VFPCyclesPerMAC
	if mode == NEON {
		per = c.NEONCyclesPerMAC
	}
	cycles := float64(MACsPerIteration(p)) * per
	return time.Duration(cycles / ClockHz * float64(time.Second))
}

// IterationBudget returns the largest iteration count whose modeled
// decode time fits RealTimeBudget(p).
func (c CostModel) IterationBudget(p core.Params, mode Mode) int {
	it := c.IterationTime(p, mode).Seconds()
	if it <= 0 {
		return 0
	}
	return int(RealTimeBudget(p).Seconds() / it)
}

// DecodeTime returns the modeled time of a decode that ran iters
// iterations.
func (c CostModel) DecodeTime(p core.Params, mode Mode, iters int) time.Duration {
	return time.Duration(float64(iters) * float64(c.IterationTime(p, mode)))
}

// RealTimeDecoder wraps the float32 pipeline decoder with the platform
// model: the iteration cap is set from the mode's real-time budget and
// every decode reports its modeled on-device time and CPU share.
type RealTimeDecoder struct {
	dec   *core.Decoder[float32]
	costs CostModel
	mode  Mode

	totalModeled time.Duration
	packets      int64

	// baseMaxIter is the nominal (RungNominal) iteration budget; the
	// degradation ladder divides it per rung.
	baseMaxIter int
	lad         ladder

	met       *decoderMetrics
	clock     telemetry.Clock
	iterTrace bool
	curTrace  []solver.IterSample
}

// decoderMetrics caches the telemetry pointers the decode path records
// into.
type decoderMetrics struct {
	decodes, failures, deadlineMisses  *telemetry.Counter
	degraded, rungShifts               *telemetry.Counter
	rung                               *telemetry.Gauge
	iterations, modeledNs, solveWallNs *telemetry.Histogram
}

// NewRealTimeDecoder builds the platform decoder. The mode names the
// build the cycle model prices (VFP or NEON, the two the paper
// compares): it sets the iteration budget and the modeled decode time,
// never the values the solver computes.
func NewRealTimeDecoder(p core.Params, mode Mode) (*RealTimeDecoder, error) {
	dec, err := core.NewDecoder[float32](p)
	if err != nil {
		return nil, err
	}
	costs := DefaultCosts()
	dec.SolverOptions.MaxIter = costs.IterationBudget(dec.Params(), mode)
	return &RealTimeDecoder{dec: dec, costs: costs, mode: mode, baseMaxIter: dec.SolverOptions.MaxIter}, nil
}

// SetCosts overrides the cycle-cost calibration — the session loop's
// Slowdown fault models a slowed CPU (thermal throttling, contention)
// this way. The iteration budget is left at the nominal calibration, so
// a slowdown makes decodes miss their modeled deadline and engages the
// degradation ladder.
func (r *RealTimeDecoder) SetCosts(c CostModel) { r.costs = c }

// Rung returns the degradation ladder's current rung.
func (r *RealTimeDecoder) Rung() Rung { return r.lad.rung }

// Instrument attaches session telemetry. The clock times the actual
// host-side solve (nil → telemetry.WallClock); inject a ManualClock for
// reproducible tests. A nil registry detaches.
func (r *RealTimeDecoder) Instrument(reg *telemetry.Registry, clock telemetry.Clock) {
	if reg == nil {
		r.met = nil
		return
	}
	if clock == nil {
		clock = telemetry.WallClock{}
	}
	r.clock = clock
	r.met = &decoderMetrics{
		decodes:        reg.Counter("coordinator_decodes_total"),
		failures:       reg.Counter("coordinator_decode_failures_total"),
		deadlineMisses: reg.Counter("coordinator_deadline_misses_total"),
		degraded:       reg.Counter("coordinator_degraded_windows_total"),
		rungShifts:     reg.Counter("coordinator_rung_shifts_total"),
		rung:           reg.Gauge("coordinator_degradation_rung"),
		iterations:     reg.Histogram("coordinator_iterations"),
		modeledNs:      reg.Histogram("coordinator_decode_modeled_ns"),
		solveWallNs:    reg.Histogram("coordinator_solve_wall_ns"),
	}
	reg.SetHelp("coordinator_degraded_windows_total", "windows released with reduced-quality reconstruction (ladder rung > nominal or solver deadline cut)")
	reg.SetHelp("coordinator_rung_shifts_total", "degradation ladder transitions in either direction")
	reg.SetHelp("coordinator_degradation_rung", "current ladder rung: 0 nominal, 1 reduced-iter, 2 gpsr, 3 best-effort")
}

// EnableIterationTrace makes every decode collect the solver's
// per-iteration telemetry (objective, residual, step) into
// Result.IterTrace. It costs one extra operator apply per iteration.
func (r *RealTimeDecoder) EnableIterationTrace() {
	r.iterTrace = true
	r.dec.SolverOptions.Trace = func(iter int, s solver.IterSample) {
		r.curTrace = append(r.curTrace, s)
	}
}

// Params returns the resolved pipeline parameters.
func (r *RealTimeDecoder) Params() core.Params { return r.dec.Params() }

// Mode returns the execution model in use.
func (r *RealTimeDecoder) Mode() Mode { return r.mode }

// IterationBudget returns the decoder's per-packet iteration cap.
func (r *RealTimeDecoder) IterationBudget() int { return r.dec.SolverOptions.MaxIter }

// Result augments the pipeline decode with platform figures.
type Result struct {
	*core.DecodeResult[float32]
	// ModeledTime is the decode time under the cycle model.
	ModeledTime time.Duration
	// CPUUsage is ModeledTime over the 2-second packet period.
	CPUUsage float64
	// Deadline reports whether the decode met RealTimeBudget.
	Deadline bool
	// SolveWallTime is the measured host-side solve duration on the
	// instrumented clock (0 when the decoder is not instrumented).
	SolveWallTime time.Duration
	// IterTrace carries the solver's per-iteration telemetry when
	// EnableIterationTrace was called.
	IterTrace []solver.IterSample
	// Rung is the degradation-ladder rung this window decoded at.
	Rung Rung
	// Degraded marks a reduced-quality release: the ladder was off
	// nominal, or the solver's soft deadline cut the recovery short.
	// The samples are still clinically displayable best-so-far output.
	Degraded bool
}

// Decode processes one packet at the ladder's current rung.
func (r *RealTimeDecoder) Decode(pkt *core.Packet) (*Result, error) {
	if r.iterTrace {
		r.curTrace = r.curTrace[:0]
	}
	rung := r.lad.rung
	s := rungSettings[rung]
	r.dec.Algorithm = s.algo
	if iter := r.baseMaxIter / s.iterDiv; iter >= 1 {
		r.dec.SolverOptions.MaxIter = iter
	} else {
		r.dec.SolverOptions.MaxIter = 1
	}
	var start int64
	if r.met != nil {
		start = r.clock.Now()
	}
	res, err := r.dec.DecodePacket(pkt)
	var wall time.Duration
	if r.met != nil {
		wall = time.Duration(r.clock.Now() - start)
	}
	if err != nil {
		if r.met != nil {
			r.met.failures.Inc()
		}
		return nil, err
	}
	modeled := r.costs.DecodeTime(r.dec.Params(), r.mode, res.Iterations)
	r.totalModeled += modeled
	r.packets++
	period := float64(r.dec.Params().N) / core.FsMote
	out := &Result{
		DecodeResult:  res,
		ModeledTime:   modeled,
		CPUUsage:      modeled.Seconds() / period,
		Deadline:      modeled <= RealTimeBudget(r.dec.Params()),
		SolveWallTime: wall,
		Rung:          rung,
	}
	out.Degraded = rung != RungNominal || res.DeadlineExpired
	if r.iterTrace && len(r.curTrace) > 0 {
		out.IterTrace = append([]solver.IterSample(nil), r.curTrace...)
	}
	shifted := r.lad.observe(out.Deadline)
	if r.met != nil {
		r.met.decodes.Inc()
		if !out.Deadline {
			r.met.deadlineMisses.Inc()
		}
		if out.Degraded {
			r.met.degraded.Inc()
		}
		if shifted {
			r.met.rungShifts.Inc()
		}
		r.met.rung.Set(int64(r.lad.rung))
		r.met.iterations.Observe(int64(res.Iterations))
		r.met.modeledNs.Observe(int64(modeled))
		r.met.solveWallNs.Observe(int64(wall))
	}
	return out, nil
}

// AverageCPUUsage returns the mean modeled CPU share across all decoded
// packets (the paper reports 17.7 % at CR = 50).
func (r *RealTimeDecoder) AverageCPUUsage() float64 {
	if r.packets == 0 {
		return 0
	}
	period := float64(r.dec.Params().N) / core.FsMote
	return r.totalModeled.Seconds() / (float64(r.packets) * period)
}

// Speedup returns the modeled NEON-over-VFP gain for the configuration —
// by construction of the default calibration this reproduces the paper's
// 2.43× when both paths run the same iteration count.
func Speedup(p core.Params) float64 {
	c := DefaultCosts()
	return float64(c.IterationTime(p, VFP)) / float64(c.IterationTime(p, NEON))
}

// SolverTuning exposes the wrapped decoder's solver options for
// experiment harnesses (tolerance, λ, continuation).
func (r *RealTimeDecoder) SolverTuning() (*core.Decoder[float32], error) {
	if r.dec == nil {
		return nil, fmt.Errorf("coordinator: decoder not initialized")
	}
	return r.dec, nil
}
