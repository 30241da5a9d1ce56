package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
)

// ingestStack is one pass's encoder and receiver plus the measurements
// the ingested frames rebuild.
type ingestStack struct {
	enc *core.Encoder
	rx  *coordinator.Receiver
	y   []int32
}

func newIngestStack(p core.Params) (*ingestStack, error) {
	enc, err := core.NewEncoder(p)
	if err != nil {
		return nil, err
	}
	// ParseFrame never reaches the decoder, so the receiver gets none.
	return &ingestStack{
		enc: enc,
		rx:  coordinator.NewReceiver(nil, coordinator.TransportConfig{}),
		y:   make([]int32, enc.Params().M),
	}, nil
}

type ingestSession struct {
	in    stream
	st    *ingestStack
	pass  int
	w     int
	first []uint64 // digest of every frame of the first pass
}

// ingestPhase is one closed-loop run of encode-ingest.
type ingestPhase struct {
	meter
	p        core.Params
	check    *sensing.SparseBinary // the checker's copy of Φ
	sessions []*ingestSession
	rounds   int
	wall     float64

	windows, failed   int64
	escapes           int64
	prdnSum           float64
	rawBits, wireBits int64
	replayed          int64
	checkErr          error
}

// runIngest runs encode-ingest: the integer half of the pipeline on
// every window, that is Encoder.EncodeWindow, Packet.Marshal,
// Receiver.ParseFrame with its CRC check, and the Huffman decode of the
// measurements, over stream-cr50's sessions and passes. The solver
// never runs, so changes to these layers, which are under 0.1 % of a
// stream workload, show here.
func runIngest(o options) (*outcome, error) {
	streams, err := pickStreams(o.seed, streamCR50.strata, streamCR50.passWindows)
	if err != nil {
		return nil, err
	}
	p := streamCR50.params()
	if !o.trace {
		setup, err := medianSeconds(setupReps, func() error {
			for range streams {
				if _, err := newIngestStack(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ph, err := runIngestPhase(p, streams, o.seconds, 0, nil)
		if err != nil {
			return nil, err
		}
		return ph.endToEnd(o, setup)
	}
	plain, err := runIngestPhase(p, streams, o.seconds*tracePlainShare, 0, nil)
	if err != nil {
		return nil, err
	}
	traced, err := runIngestPhase(p, streams, 0, plain.rounds, newSpanRecorder())
	if err != nil {
		return nil, err
	}
	return plain.perLayer(o, traced)
}

func runIngestPhase(p core.Params, streams []stream, seconds float64, rounds int, tr *spanRecorder) (*ingestPhase, error) {
	probe, err := core.NewEncoder(p)
	if err != nil {
		return nil, err
	}
	rp := probe.Params()
	phi, err := sensing.NewSparseBinaryLCG(rp.M, rp.N, rp.D, rp.Seed)
	if err != nil {
		return nil, err
	}
	ph := &ingestPhase{meter: meter{tr: tr}, p: rp, check: phi}
	for _, in := range streams {
		ph.sessions = append(ph.sessions, &ingestSession{in: in, first: make([]uint64, len(in.windows))})
	}
	runtime.GC()
	start := time.Now()
	ph.chunkAt = start
	for ph.checkErr == nil {
		if rounds > 0 && ph.rounds == rounds || rounds == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		for _, s := range ph.sessions {
			if err := ph.step(s); err != nil {
				return nil, err
			}
		}
		ph.rounds++
		ph.endRound(ph.windows)
	}
	ph.wall = time.Since(start).Seconds()
	return ph, nil
}

func (ph *ingestPhase) fail(format string, args ...any) {
	if ph.checkErr == nil {
		ph.checkErr = fmt.Errorf(format, args...)
	}
}

func (ph *ingestPhase) step(s *ingestSession) error {
	if s.st == nil {
		st, err := newIngestStack(ph.p)
		if err != nil {
			return err
		}
		s.st = st
	}
	st := s.st
	win := s.in.windows[s.w]
	if ph.tr != nil {
		ph.tr.window = int32(s.w)
	}
	var pkt, got *core.Packet
	var blob []byte
	var escapes int
	var err error
	lat := ph.sys(spanEncode, func() { pkt, err = st.enc.EncodeWindow(win) })
	if err != nil {
		return err
	}
	lat += ph.sys(spanMarshal, func() { blob, err = pkt.Marshal() })
	if err != nil {
		return err
	}
	lat += ph.sys(spanParse, func() { got, err = st.rx.ParseFrame(blob) })
	if err != nil {
		ph.failed++
		ph.fail("record %s window %d: the receiver rejected an intact frame: %v", s.in.record, s.w, err)
		return nil
	}
	lat += ph.sys(spanHuffman, func() {
		if got.Kind == core.KindKey {
			err = unpackKey(st.y, got)
		} else {
			escapes, err = applyDelta(st.y, got, ph.p.Codebook)
		}
	})
	if err != nil {
		ph.failed++
		ph.fail("record %s window %d: %v", s.in.record, s.w, err)
		return nil
	}
	ph.latency = append(ph.latency, float64(lat)/1e6)
	ph.windows++
	ph.escapes += int64(escapes)
	ph.rawBits += core.WindowSize * 12
	ph.wireBits += int64(len(blob)) * 8
	ph.checkFrame(s, pkt, got, blob, win)

	s.w++
	if s.w == len(s.in.windows) {
		s.st, s.w = nil, 0
		s.pass++
	}
	return nil
}

// checkFrame checks one ingested window: the frame must round-trip
// byte for byte, the rebuilt measurements must equal the encoder's
// rounded measurements of the source window, and a later pass must
// reproduce the first. It adds the measurement-domain PRDN of the
// rounding the encoder applies.
func (ph *ingestPhase) checkFrame(s *ingestSession, sent, got *core.Packet, blob []byte, win []int16) {
	again, err := got.Marshal()
	if err != nil || !bytes.Equal(again, blob) || got.Seq != sent.Seq || got.Kind != sent.Kind ||
		got.NumSymbols != sent.NumSymbols || !bytes.Equal(got.Payload, sent.Payload) {
		ph.fail("record %s window %d: the frame does not round-trip through ParseFrame", s.in.record, s.w)
		return
	}
	centred := make([]int16, len(win))
	for i, v := range win {
		centred[i] = min(max(v, 0), core.ADCMax) - core.ADCBaseline
	}
	exact := make([]int32, ph.p.M)
	ph.check.MeasureInt(exact, centred)
	half := int64(1) << (ph.p.MeasurementShift - 1)
	orig := make([]float64, ph.p.M)
	reco := make([]float64, ph.p.M)
	for i, v := range exact {
		var want int32
		if v >= 0 {
			want = int32((int64(v) + half) >> ph.p.MeasurementShift)
		} else {
			want = int32(-((-int64(v) + half) >> ph.p.MeasurementShift))
		}
		if st := s.st.y[i]; st != want {
			ph.fail("record %s window %d: measurement %d decoded as %d, encoder sent %d", s.in.record, s.w, i, st, want)
			return
		}
		orig[i] = float64(v)
		reco[i] = float64(int64(want) << ph.p.MeasurementShift)
	}
	prdn, err := metrics.PRDN(orig, reco)
	if err != nil {
		ph.fail("record %s window %d: %v", s.in.record, s.w, err)
		return
	}
	ph.prdnSum += prdn
	h := fnv.New64a()
	h.Write(blob)
	dg := h.Sum64()
	switch {
	case s.pass == 0:
		s.first[s.w] = dg
	case s.first[s.w] != dg:
		ph.fail("record %s pass %d window %d encodes differently from the first pass", s.in.record, s.pass, s.w)
	default:
		ph.replayed++
	}
}

func (ph *ingestPhase) notes(o options) []string {
	return []string{
		fmt.Sprintf("encode-ingest seed %d: %d sessions, %d-window passes, CR 50, closed loop from one goroutine (GOMAXPROCS %d)",
			o.seed, len(ph.sessions), streamCR50.passWindows, runtime.GOMAXPROCS(0)),
		fmt.Sprintf("%d rounds in %.2f s: %d windows ingested, %d checked against their first pass; %.2f s in system calls",
			ph.rounds, ph.wall, ph.windows, ph.replayed, float64(ph.sysNs)/1e9),
	}
}

// runDigest combines the first-pass frame digests, or returns false if
// some session has not finished its first pass.
func (ph *ingestPhase) runDigest() (uint64, bool) {
	h := fnv.New64a()
	for _, s := range ph.sessions {
		if s.pass == 0 {
			return 0, false
		}
		fmt.Fprintf(h, "%s %d %v\n", s.in.record, s.in.offset, s.first)
	}
	return h.Sum64(), true
}

// allocKBPerWindow replays one pass of every session with nothing but
// the system calls between two exact heap readings. The timed phase's
// per-call readings attribute small allocations to whichever call
// refills a span, which at under 1 KiB per window would let the
// checker's allocations leak into the figure.
func (ph *ingestPhase) allocKBPerWindow() (float64, error) {
	stacks := make([]*ingestStack, len(ph.sessions))
	for i := range stacks {
		st, err := newIngestStack(ph.p)
		if err != nil {
			return 0, err
		}
		stacks[i] = st
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	windows := 0
	for i, s := range ph.sessions {
		st := stacks[i]
		for _, win := range s.in.windows {
			pkt, err := st.enc.EncodeWindow(win)
			if err != nil {
				return 0, err
			}
			blob, err := pkt.Marshal()
			if err != nil {
				return 0, err
			}
			got, err := st.rx.ParseFrame(blob)
			if err != nil {
				return 0, err
			}
			if got.Kind == core.KindKey {
				err = unpackKey(st.y, got)
			} else {
				_, err = applyDelta(st.y, got, ph.p.Codebook)
			}
			if err != nil {
				return 0, err
			}
			windows++
		}
	}
	runtime.ReadMemStats(&after)
	return ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(windows)), nil
}

func (ph *ingestPhase) endToEnd(o options, setup float64) (*outcome, error) {
	p50 := median(slices.Clone(ph.latency))
	pct, tailMs, err := tail(ph.latency, minBeyond)
	if err != nil {
		return nil, err
	}
	allocKB, err := ph.allocKBPerWindow()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: ph.windows + ph.failed, failed: ph.failed, checkErr: ph.checkErr, notes: ph.notes(o)}
	out.notes = append(out.notes, ph.chunkNote(),
		fmt.Sprintf("window_ms_tail is p%.4f of %d samples; prdn_mean_pct is the measurement-domain PRDN of the encoder's rounding", pct, len(ph.latency)))
	if dg, ok := ph.runDigest(); ok && out.checkErr == nil {
		out.checkErr = checkDigest(o, dg)
	}
	out.metrics, err = endToEndMetrics(map[string]float64{
		"sessions_per_core":   ph.sessionsPerCoreMedian(ph.windows),
		"window_ms_p50":       p50,
		"window_ms_tail":      tailMs,
		"prdn_mean_pct":       ratio(ph.prdnSum, float64(ph.windows)),
		"wire_cr_pct":         metrics.CR(int(ph.rawBits), int(ph.wireBits)),
		"alloc_kb_per_window": allocKB,
		"released_pct":        100 * ratio(float64(ph.windows), float64(ph.windows+ph.failed)),
		"setup_s":             setup,
	})
	return out, err
}

// perLayer reports the per-layer metrics: every layer here is its own
// call, timed in the untraced phase; the traced phase gives the
// tracing overhead.
func (ph *ingestPhase) perLayer(o options, traced *ingestPhase) (*outcome, error) {
	if err := writeSpans(filepath.Join(o.stateDir, "spans-encode-ingest.tsv.gz"), traced.tr.spans); err != nil {
		return nil, err
	}
	out := &outcome{attempted: ph.windows + traced.windows, failed: ph.failed + traced.failed, notes: ph.notes(o)}
	out.notes = append(out.notes, traced.notes(o)[1])
	out.checkErr = ph.checkErr
	if out.checkErr == nil {
		out.checkErr = traced.checkErr
	}
	spc := sessionsPerCore(ph.windows, ph.sysNs)
	spcTraced := sessionsPerCore(traced.windows, traced.sysNs)
	values := map[string]float64{
		"huffman.decode_us_per_window": ph.calls[spanHuffman].meanUs(),
		"huffman.escapes_per_window":   ratio(float64(ph.escapes), float64(ph.windows)),
		"core.encode_us":               ph.calls[spanEncode].meanUs(),
		"core.marshal_us":              ph.calls[spanMarshal].meanUs(),
		"core.parse_us":                ph.calls[spanParse].meanUs(),
		"trace_overhead_pct":           100 * ratio(spc-spcTraced, spc),
	}
	for _, d := range perLayer {
		if _, ok := values[d.name]; !ok {
			values[d.name] = 0 // the decoder and the transport do not run here
		}
	}
	var err error
	out.metrics, err = perLayerMetrics(values)
	return out, err
}
