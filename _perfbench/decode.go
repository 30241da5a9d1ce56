package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/huffman"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

// unpackKey loads a key frame's raw little-endian measurements into y.
func unpackKey(y []int32, pkt *core.Packet) error {
	if len(pkt.Payload) != 2*len(y) {
		return fmt.Errorf("key payload %d bytes, want %d", len(pkt.Payload), 2*len(y))
	}
	for i := range y {
		y[i] = int32(int16(binary.LittleEndian.Uint16(pkt.Payload[2*i:])))
	}
	return nil
}

// applyDelta Huffman-decodes a delta frame's measurement differences
// onto y and returns how many were escape-coded.
func applyDelta(y []int32, pkt *core.Packet, cb *huffman.Codebook) (int, error) {
	if int(pkt.NumSymbols) != len(y) {
		return 0, fmt.Errorf("delta packet carries %d symbols, want %d", pkt.NumSymbols, len(y))
	}
	r := huffman.NewBitReader(pkt.Payload)
	escapes := 0
	for i := range y {
		s, err := cb.Decode(r)
		if err != nil {
			return escapes, fmt.Errorf("symbol %d: %w", i, err)
		}
		var diff int32
		if s == core.EscapeSymbol {
			escapes++
			raw, err := r.ReadBits(24)
			if err != nil {
				return escapes, fmt.Errorf("escape value %d: %w", i, err)
			}
			diff = int32(raw<<8) >> 8 // sign-extend 24 bits
		} else {
			diff = int32(s - core.NumDiffSymbols/2)
		}
		y[i] += diff
	}
	return escapes, nil
}

// decodeStats totals what a phase's decoders did.
type decodeStats struct {
	// decode times the reference decoder's Decode calls.
	decode acc
	// solverAllocs and solves count the traced decodes' solver calls and
	// the heap bytes they allocated; cold counts those without a warm
	// start.
	solverAllocs uint64
	solves, cold int64
}

// tracedDecoder rebuilds core.Decoder's packet decode from the public
// layer functions with Φ and Ψ wrapped, so every operator apply is a
// span: key unpack or huffman.Codebook.Decode, then solver.FISTA or
// FISTAContinuation over linalg.Compose(sensing.Op, wavelet SynthesisOp),
// then the residual, wavelet Inverse and requantization, then
// metrics.EstimatePRDN. It keeps the same cross-window state as
// core.Decoder, so it must reproduce the reference decode bit for bit.
type tracedDecoder struct {
	p     core.Params
	scale float32 // the deferred 1/√d sensing scale times 2^shift
	a     linalg.Op[float32]
	psi   *wavelet.Transform[float32]
	lip   float32
	tr    *spanRecorder
	stats *decodeStats

	y                []int32
	warm             []float32
	haveWarm, synced bool
	nextSeq          uint32
}

func newTracedDecoder(p core.Params, tr *spanRecorder, stats *decodeStats) (*tracedDecoder, error) {
	if p.Basis != core.BasisWavelet {
		return nil, fmt.Errorf("traced decode supports the wavelet basis only, got %v", p.Basis)
	}
	phi, err := sensing.NewSparseBinaryLCG(p.M, p.N, p.D, p.Seed)
	if err != nil {
		return nil, err
	}
	psi, err := wavelet.New[float32](p.WaveletOrder, p.N, p.WaveletLevels)
	if err != nil {
		return nil, err
	}
	phiOp, psiOp := sensing.Op[float32](phi), psi.SynthesisOp()
	return &tracedDecoder{
		p:     p,
		scale: float32(phi.Scale() * float64(int64(1)<<uint(p.MeasurementShift))),
		a: linalg.Compose(tr.wrapOp(phiOp, spanPhiApply, spanPhiApplyT),
			tr.wrapOp(psiOp, spanPsiSynth, spanPsiAnalysis)),
		psi:   psi,
		lip:   2 * linalg.PowerIterOpNorm(linalg.Compose(phiOp, psiOp), 30),
		tr:    tr,
		stats: stats,
		y:     make([]int32, p.M),
	}, nil
}

// tracedResult is the part of a decode the reference must match.
type tracedResult struct {
	samples    []int16
	iterations int
	converged  bool
	resynced   bool
	residual   float64
	escapes    int
	stageIters []int
	estPRDN    float64
}

// decode reconstructs one packet. opt and stages are the reference
// decoder's solver settings for this window; gapRate is the receiver's
// recent loss rate the quality estimate takes.
func (d *tracedDecoder) decode(pkt *core.Packet, opt solver.Options[float32], stages int, gapRate float64) (*tracedResult, error) {
	top := d.tr.begin(spanDecode)
	defer d.tr.end(top)
	res := &tracedResult{}
	h := d.tr.begin(spanHuffman)
	err := d.ingest(pkt, res)
	d.tr.end(h)
	if err != nil {
		return nil, err
	}

	y := make([]float32, d.p.M)
	for i, v := range d.y {
		y[i] = float32(v) * d.scale
	}
	opt.Lipschitz = d.lip
	opt.X0 = nil
	if d.haveWarm {
		opt.X0 = d.warm
	} else {
		d.stats.cold++
	}
	var sr solver.Result[float32]
	allocs, own := heapAllocs(), d.tr.ownAllocs
	f := d.tr.begin(spanFISTA)
	if d.haveWarm || stages <= 1 {
		sr, err = solver.FISTA(d.a, y, opt)
	} else {
		sr, err = solver.FISTAContinuation(d.a, y, opt, stages)
	}
	d.tr.end(f)
	d.stats.solverAllocs += heapAllocs() - allocs - (d.tr.ownAllocs - own)
	d.stats.solves++
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	d.warm, d.haveWarm = sr.X, true
	res.iterations, res.converged, res.stageIters = sr.Iterations, sr.Converged, sr.StageIters

	rc := d.tr.begin(spanReconstruct)
	resid := make([]float32, d.p.M)
	d.a.Apply(resid, sr.X)
	linalg.Sub(resid, resid, y)
	if ny := float64(linalg.Norm2(y)); ny > 0 {
		res.residual = float64(linalg.Norm2(resid)) / ny
	}
	mv := make([]float32, d.p.N)
	d.psi.Inverse(mv, sr.X)
	res.samples = make([]int16, d.p.N)
	for i, v := range mv {
		res.samples[i] = clampADC(int32(round32(v)) + core.ADCBaseline)
	}
	d.tr.end(rc)

	es := d.tr.begin(spanEstimate)
	res.estPRDN = metrics.EstimatePRDN(metrics.QualityObservables{
		Residual:   res.residual,
		M:          d.p.M,
		N:          d.p.N,
		Converged:  res.converged,
		EscapeRate: float64(res.escapes) / float64(d.p.M),
		GapRate:    gapRate,
	})
	d.tr.end(es)
	return res, nil
}

// ingest applies the packet to the measurement state with
// core.Decoder's sequencing rules: deltas need an unbroken run from the
// last key frame.
func (d *tracedDecoder) ingest(pkt *core.Packet, res *tracedResult) error {
	switch pkt.Kind {
	case core.KindKey:
		if err := unpackKey(d.y, pkt); err != nil {
			return err
		}
		res.resynced = d.synced && pkt.Seq != d.nextSeq || !d.synced && pkt.Seq != 0
		d.synced = true
	case core.KindDelta:
		if !d.synced {
			return fmt.Errorf("delta packet %d before any key frame", pkt.Seq)
		}
		if pkt.Seq != d.nextSeq {
			d.synced = false
			return fmt.Errorf("sequence gap (got %d, want %d)", pkt.Seq, d.nextSeq)
		}
		n, err := applyDelta(d.y, pkt, d.p.Codebook)
		if err != nil {
			d.synced = false
			return err
		}
		res.escapes = n
	default:
		return fmt.Errorf("packet kind %d on the data path", pkt.Kind)
	}
	d.nextSeq = pkt.Seq + 1
	return nil
}

func round32(v float32) float32 {
	if v >= 0 {
		return float32(int64(v + 0.5))
	}
	return float32(int64(v - 0.5))
}

func clampADC(v int32) int16 {
	return int16(min(max(v, 0), core.ADCMax))
}

// decoderTap sits between a receiver and its reference decoder. It times
// every decode and, in a traced phase, repeats each one with the traced
// decoder and checks that the two agree.
type decoderTap struct {
	dec     *coordinator.RealTimeDecoder
	traced  *tracedDecoder // nil in an untraced phase
	stats   *decodeStats
	gapRate func() float64
	// estimates holds the traced quality estimates of decodes the
	// receiver has not released yet, in decode order.
	estimates []float64
	// err is the first disagreement between the traced and the
	// reference decode.
	err error
}

func (t *decoderTap) Params() core.Params { return t.dec.Params() }

func (t *decoderTap) Decode(pkt *core.Packet) (*coordinator.Result, error) {
	if t.traced == nil {
		start := time.Now()
		res, err := t.dec.Decode(pkt)
		t.stats.decode.add(int64(time.Since(start)))
		return res, err
	}
	tr := t.traced.tr
	i := tr.begin(spanRefDecode)
	res, err := t.dec.Decode(pkt)
	tr.end(i)
	t.check(pkt, res, err)
	return res, err
}

// check runs the traced decode of pkt and compares it with the
// reference result.
func (t *decoderTap) check(pkt *core.Packet, ref *coordinator.Result, refErr error) {
	inner, err := t.dec.SolverTuning()
	if err != nil {
		t.fail(err)
		return
	}
	if inner.Algorithm != solver.AlgoFISTA {
		t.fail(fmt.Errorf("window %d decoded with solver %v; the traced decode rebuilds FISTA only", pkt.Seq, inner.Algorithm))
		return
	}
	got, err := t.traced.decode(pkt, inner.SolverOptions, inner.ContinuationStages, t.gapRate())
	switch {
	case (err == nil) != (refErr == nil):
		t.fail(fmt.Errorf("window %d: traced decode error %v, reference error %v", pkt.Seq, err, refErr))
	case err != nil:
	case !sameDecode(got, ref):
		t.fail(fmt.Errorf("window %d: traced decode (%d iterations, residual %v) differs from the reference (%d iterations, residual %v)",
			pkt.Seq, got.iterations, got.residual, ref.Iterations, ref.ResidualNorm))
	default:
		t.estimates = append(t.estimates, got.estPRDN)
	}
}

func (t *decoderTap) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// sameDecode reports whether the traced decode reproduced the reference
// bit for bit.
func sameDecode(got *tracedResult, ref *coordinator.Result) bool {
	return slices.Equal(got.samples, ref.Samples) &&
		got.iterations == ref.Iterations &&
		got.converged == ref.Converged &&
		!ref.DeadlineExpired &&
		got.resynced == ref.Resynced &&
		math.Float64bits(got.residual) == math.Float64bits(ref.ResidualNorm) &&
		got.escapes == ref.EscapeCount &&
		slices.Equal(got.stageIters, ref.StageIters)
}
