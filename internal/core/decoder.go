// This file is the smartphone/coordinator half of the system: the paper
// defers all real-valued arithmetic (notably the 1/√d sensing scale)
// here, so the whole file is exempt from the device-side float ban.
//csecg:host coordinator-side reconstruction

package core

import (
	"encoding/binary"
	"fmt"

	"csecg/internal/huffman"
	"csecg/internal/linalg"
	"csecg/internal/sensing"
	"csecg/internal/solver"
)

// Decoder is the coordinator-side reconstructor, generic over the float
// width: float32 instantiates the paper's iPhone decoder, float64 the
// Matlab reference. It mirrors the encoder's three stages in reverse
// and then solves the l1 recovery problem with FISTA.
type Decoder[T linalg.Float] struct {
	p     Params
	phi   *sensing.SparseBinary
	psi   sparsifier[T]
	a     linalg.Op[T] // ΦΨ
	lip   T            // cached Lipschitz constant 2‖A‖²
	prevY []int32
	// ws is the FISTA scratch every solve of the decoder's life runs in,
	// sized once here so a warm window's solve allocates nothing.
	ws *solver.Workspace[T]
	// warmAlpha is the previous window's solution, the next solve's
	// warm start. After a FISTA solve it is one of ws's buffers, which
	// the next solve copies before it writes any of them.
	warmAlpha []T
	haveWarm  bool
	nextSeq   uint32
	synced    bool
	// lastEscapes counts the escape symbols of the packet being decoded.
	lastEscapes int
	// y and resid are DecodePacket's per-window measurement and
	// residual vectors; neither outlives the call.
	y, resid []T

	// SolverOptions tunes the recovery. MaxIter is the real-time budget
	// (Section V: 800 unoptimized, 2000 optimized); the coordinator
	// sets it per build from the cycle model.
	SolverOptions solver.Options[T]
	// ContinuationStages > 1 enables λ-continuation (warm-started
	// windows rarely need it; cold key frames benefit).
	ContinuationStages int
	// Algorithm selects the recovery solver. The zero value is the
	// paper's FISTA (with continuation per ContinuationStages), which
	// every rung of the coordinator's degradation ladder runs.
	Algorithm solver.Algorithm
}

// DecodeResult reports one reconstructed window. The result and its
// Samples, MV and StageIters belong to the caller: DecodePacket
// allocates them on every call and never writes them again, and the
// solver scratch it reuses stays inside the Decoder. So a caller may
// hold the results of several windows at once.
type DecodeResult[T linalg.Float] struct {
	// Samples is the reconstructed window in raw ADC units
	// (baseline restored).
	Samples []int16
	// MV is the reconstruction in zero-centered ADC units (divide by
	// the 200 ADU/mV gain for millivolts), before requantization.
	MV []T
	// Iterations used by the recovery solve.
	Iterations int
	// Converged reports whether FISTA hit its tolerance inside the
	// iteration budget.
	Converged bool
	// DeadlineExpired reports whether the solver's soft wall-clock
	// deadline (SolverOptions.DeadlineNs) cut the recovery short;
	// Samples then holds the best-so-far reconstruction.
	DeadlineExpired bool
	// Resynced is true when the packet was a key frame that recovered
	// the stream after a gap.
	Resynced bool
	// ResidualNorm is the normalized final data residual
	// ‖ΦΨα − y‖₂ / ‖y‖₂ — the decoder-side observable behind the
	// ground-truth-free quality estimate (metrics.EstimatePRDN).
	ResidualNorm float64
	// EscapeCount is the number of escape-coded difference symbols in a
	// delta packet (0 for key frames): out-of-codebook jumps that track
	// signal nonstationarity on the mote.
	EscapeCount int
	// StageIters holds the per-stage iteration counts when the solve ran
	// FISTA continuation (cold starts); nil for warm-started or
	// non-FISTA solves. The causal span trace splits the solver leaf
	// into sub-stage spans proportionally to these counts.
	StageIters []int
}

// NewDecoder builds a decoder for the given parameters.
func NewDecoder[T linalg.Float](p Params) (*Decoder[T], error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	phi, err := p.sensingMatrix()
	if err != nil {
		return nil, err
	}
	psi, err := basis[T](p)
	if err != nil {
		return nil, err
	}
	a := linalg.Compose(sensing.Op[T](phi), psi.SynthesisOp())
	d := &Decoder[T]{
		p:     p,
		phi:   phi,
		psi:   psi,
		a:     a,
		lip:   2 * linalg.PowerIterOpNorm(a, 30),
		prevY: make([]int32, p.M),
		ws:    solver.NewWorkspace(a),
		y:     make([]T, p.M),
		resid: make([]T, p.M),
		SolverOptions: solver.Options[T]{
			MaxIter: 2000,
			// 3e-5 is the loosest tolerance whose reconstruction quality
			// is indistinguishable from 1e-5 on the substitute database,
			// and it lands the per-packet iteration count in the paper's
			// 600-900 band at CR=50.
			Tol: 3e-5,
		},
		ContinuationStages: 6,
	}
	return d, nil
}

// Params returns the resolved parameters.
func (d *Decoder[T]) Params() Params { return d.p }

// DecodePacket reconstructs one window. Packets must arrive in order;
// after a loss, delta packets are rejected until the next key frame
// resynchronizes the measurement state.
func (d *Decoder[T]) DecodePacket(pkt *Packet) (*DecodeResult[T], error) {
	resynced := false
	d.lastEscapes = 0
	switch pkt.Kind {
	case KindKey:
		if err := d.decodeKey(pkt); err != nil {
			return nil, err
		}
		resynced = d.synced && pkt.Seq != d.nextSeq || !d.synced && pkt.Seq != 0
		d.synced = true
	case KindDelta:
		if !d.synced {
			return nil, fmt.Errorf("core: delta packet %d before any key frame", pkt.Seq)
		}
		if pkt.Seq != d.nextSeq {
			d.synced = false
			return nil, fmt.Errorf("core: sequence gap (got %d, want %d); awaiting key frame", pkt.Seq, d.nextSeq)
		}
		if err := d.decodeDelta(pkt); err != nil {
			d.synced = false
			return nil, err
		}
	case KindNack, KindKeyRequest:
		return nil, fmt.Errorf("core: control packet kind %d on the data path", pkt.Kind)
	default:
		return nil, fmt.Errorf("core: unknown packet kind %d", pkt.Kind)
	}
	d.nextSeq = pkt.Seq + 1

	// Stage 3: FISTA recovery of α from y, then x̃ = Ψα. The deferred
	// scales are applied here: the 1/√d of the sensing matrix and the
	// 2^shift of the encoder's LSB drop.
	y := d.y
	scale := T(d.phi.Scale() * float64(int64(1)<<uint(d.p.MeasurementShift)))
	for i, v := range d.prevY {
		y[i] = T(v) * scale
	}
	opt := d.SolverOptions
	opt.Lipschitz = d.lip
	if d.haveWarm {
		opt.X0 = d.warmAlpha
	}
	var res solver.Result[T]
	var err error
	switch {
	case d.Algorithm == solver.AlgoGPSR:
		res, err = solver.GPSR(d.a, y, opt)
	case d.haveWarm || d.ContinuationStages <= 1:
		res, err = d.ws.FISTA(y, opt)
	default:
		res, err = d.ws.FISTAContinuation(y, opt, d.ContinuationStages)
	}
	if err != nil {
		return nil, fmt.Errorf("core: recovery: %w", err)
	}
	d.warmAlpha = res.X
	d.haveWarm = true

	// Normalized data residual ‖Aα − y‖₂/‖y‖₂: one extra operator apply
	// (≪ the solve's hundreds) buys the quality estimator its primary
	// observable.
	resid := d.resid
	d.a.Apply(resid, res.X)
	linalg.Sub(resid, resid, y)
	var residualNorm float64
	if ny := float64(linalg.Norm2(y)); ny > 0 {
		residualNorm = float64(linalg.Norm2(resid)) / ny
	}

	mv := make([]T, d.p.N)
	d.psi.Inverse(mv, res.X)
	samples := make([]int16, d.p.N)
	for i, v := range mv {
		samples[i] = clampADC(int32(roundT(v)) + ADCBaseline)
	}
	return &DecodeResult[T]{
		Samples:         samples,
		MV:              mv,
		Iterations:      res.Iterations,
		Converged:       res.Converged,
		DeadlineExpired: res.DeadlineExpired,
		Resynced:        resynced,
		ResidualNorm:    residualNorm,
		EscapeCount:     d.lastEscapes,
		StageIters:      res.StageIters,
	}, nil
}

// decodeKey unpacks raw measurements.
func (d *Decoder[T]) decodeKey(pkt *Packet) error {
	if len(pkt.Payload) != 2*d.p.M {
		return fmt.Errorf("core: key payload %d bytes, want %d", len(pkt.Payload), 2*d.p.M)
	}
	for i := 0; i < d.p.M; i++ {
		d.prevY[i] = int32(int16(binary.LittleEndian.Uint16(pkt.Payload[2*i:])))
	}
	return nil
}

// decodeDelta undoes the Huffman and difference stages, accumulating
// onto the previous measurements.
func (d *Decoder[T]) decodeDelta(pkt *Packet) error {
	if int(pkt.NumSymbols) != d.p.M {
		return fmt.Errorf("core: delta packet carries %d symbols, want %d", pkt.NumSymbols, d.p.M)
	}
	r := huffman.NewBitReader(pkt.Payload)
	for i := 0; i < d.p.M; i++ {
		s, err := d.p.Codebook.Decode(r)
		if err != nil {
			return fmt.Errorf("core: entropy decoding symbol %d: %w", i, err)
		}
		var diff int32
		if s == EscapeSymbol {
			d.lastEscapes++
			raw, err := r.ReadBits(24)
			if err != nil {
				return fmt.Errorf("core: reading escape value %d: %w", i, err)
			}
			diff = int32(raw<<8) >> 8 // sign-extend 24 bits
		} else {
			diff = int32(s - NumDiffSymbols/2)
		}
		d.prevY[i] += diff
	}
	return nil
}

func clampADC(v int32) int16 {
	if v < 0 {
		return 0
	}
	if v > 2047 {
		return 2047
	}
	return int16(v)
}

// roundT rounds half away from zero. It rounds from the exact
// fractional part v − trunc(v): adding 0.5 first would round, and take
// the largest float below 0.5 (0.49999997 in float32) up to 1.
func roundT[T linalg.Float](v T) T {
	t := T(int64(v))
	if v >= 0 {
		if v-t >= 0.5 {
			t++
		}
	} else if t-v >= 0.5 {
		t--
	}
	return t
}
