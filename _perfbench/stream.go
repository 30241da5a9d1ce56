package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/link"
	"csecg/internal/metrics"
	"csecg/internal/mote"
	"csecg/internal/telemetry"
)

// streamKind is one stream workload: sessions of consecutive windows
// decoded by the coordinator in a closed loop.
type streamKind struct {
	name string
	// cr is the measurement compression ratio in percent.
	cr    float64
	lossy bool
	// strata holds one record stratum per session; the sessions run side
	// by side, and each pass replays a session's passWindows windows
	// through a freshly built stack.
	strata      [][2]string
	passWindows int
	// minMeanIterations guards against timing a decoder that stopped
	// solving: a warm window at the paper's operating point takes
	// hundreds of FISTA iterations, a re-decoded one takes 1.
	minMeanIterations float64
}

// Pass lengths leave room for a second pass within a 30-second run, so
// the replay check runs.
var (
	streamCR50 = streamKind{name: "stream-cr50", cr: 50, strata: strataCR50, passWindows: 20, minMeanIterations: 100}
	lossyCR80  = streamKind{name: "lossy-cr80", cr: 80, lossy: true, strata: strataCR80, passWindows: 10}
)

const (
	// setupReps is how often setup_s builds the stacks of a run; the
	// median is reported.
	setupReps = 11
	// scrapeEvery is the number of a lossy session's windows between two
	// scrapes of its /metrics registry.
	scrapeEvery = 4
	// minBeyond is the number of samples the tail percentile leaves
	// beyond it.
	minBeyond = 10
	// tracePlainShare is the share of --seconds a --trace 1 run spends
	// in its untraced phase. The traced phase then replays the same
	// rounds and, decoding every window twice, takes about twice as long,
	// so a traced run lasts about as long as an untraced one.
	tracePlainShare = 1.0 / 3
)

// burst is lossy-cr80's downlink channel: a Gilbert–Elliott chain with
// p = 0.03 and r = 0.3, so about 9 % of frames are lost in bursts of 3.3
// frames on average.
var burst = link.BurstConfig{PGoodBad: 0.03, PBadGood: 0.3}

func (k streamKind) params() core.Params {
	return core.Params{Seed: 42, M: metrics.MForCR(k.cr, core.WindowSize)}
}

// stack is one pass's system under test and load generator. Every pass
// builds a fresh one, so no state carries from one pass to the next.
type stack struct {
	// The load generator: the mote model and the radio links.
	mote     *mote.Model
	down, up *link.Link
	// The system under test.
	dec *coordinator.RealTimeDecoder
	tap *decoderTap
	rx  *coordinator.Receiver
	reg *telemetry.Registry // nil on a clean-link session
	// scrape holds the last /metrics page; its buffer is reused.
	scrape bytes.Buffer
}

// newSystem builds what setup_s times: the mote's encoder, the decoder
// with its Lipschitz power iteration, the receiver and, on a lossy
// session, the observability stack (metrics registry and flight
// recorder). With tr set, the tap also gets a traced decoder.
func (k streamKind) newSystem(tr *spanRecorder, stats *decodeStats) (*stack, error) {
	p := k.params()
	m, err := mote.New(p)
	if err != nil {
		return nil, err
	}
	dec, err := coordinator.NewRealTimeDecoder(p, coordinator.NEON)
	if err != nil {
		return nil, err
	}
	st := &stack{mote: m, dec: dec, tap: &decoderTap{dec: dec, stats: stats}}
	if tr != nil {
		if st.tap.traced, err = newTracedDecoder(dec.Params(), tr, stats); err != nil {
			return nil, err
		}
	}
	transport := coordinator.TransportConfig{NACK: k.lossy}
	st.rx = coordinator.NewReceiver(st.tap, transport)
	st.tap.gapRate = st.rx.GapRate
	if !k.lossy {
		return st, nil
	}
	if err := m.EnableRetransmitBuffer(mote.DefaultRetransmitRing); err != nil {
		return nil, err
	}
	st.reg = telemetry.NewRegistry()
	rec := blackbox.NewRecorder(blackbox.Config{Session: k.name})
	rec.SetMeta(blackbox.NewSessionMeta(k.name, dec.Params(), dec.Mode(), transport))
	rec.AttachRegistry(st.reg)
	st.rx.SetRecorder(rec)
	st.rx.Instrument(st.reg)
	dec.Instrument(st.reg, nil)
	m.Instrument(st.reg)
	return st, nil
}

// newLinks builds the session's radio links: a clean downlink, or a
// lossy session's burst-loss downlink and the clean uplink that carries
// its NACKs and key requests.
func (k streamKind) newLinks(st *stack, seed uint64) error {
	clean := link.DefaultConfig()
	if !k.lossy {
		var err error
		st.down, err = link.New(clean)
		return err
	}
	down := clean
	b := burst
	down.Burst, down.Seed = &b, seed
	var err error
	if st.down, err = link.New(down); err != nil {
		return err
	}
	if st.up, err = link.New(clean); err != nil {
		return err
	}
	st.down.Instrument(st.reg, "link")
	st.up.Instrument(st.reg, "ctrl")
	return nil
}

// session is one stream's closed loop: it hands the system the next
// window only after the calls for the previous one have returned.
type session struct {
	in   stream
	st   *stack
	pass int
	w    int    // next window of the pass
	next uint32 // lowest sequence number the next release may carry
	// first holds a digest of every window the first pass released, by
	// sequence number (0 when not released), and firstStats its
	// transport counters; later passes must reproduce both.
	first      []uint64
	firstStats coordinator.TransportStats
	firstWire  uint64
}

// streamPhase is one closed-loop run over all sessions: each round
// hands every session its next window.
type streamPhase struct {
	k streamKind
	meter
	decodes  decodeStats
	sessions []*session
	rounds   int
	wall     float64
	gc       uint64

	sent, released, failed int64
	iterations, converged  int64
	escapes                int64
	prdnSum                float64
	rawBits, wireBits      int64
	scrapeBytes            int64
	transport              coordinator.TransportStats
	replayed               int64 // windows checked against the first pass
	checkErr               error
}

func (k streamKind) run(o options) (*outcome, error) {
	streams, err := pickStreams(o.seed, k.strata, k.passWindows)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		setup, err := medianSeconds(setupReps, func() error {
			for range streams {
				if _, err := k.newSystem(nil, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ph, err := k.runPhase(streams, o.seconds, 0, nil)
		if err != nil {
			return nil, err
		}
		return ph.endToEnd(o, setup)
	}
	plain, err := k.runPhase(streams, o.seconds*tracePlainShare, 0, nil)
	if err != nil {
		return nil, err
	}
	traced, err := k.runPhase(streams, 0, plain.rounds, newSpanRecorder())
	if err != nil {
		return nil, err
	}
	return k.perLayer(o, plain, traced)
}

// runPhase runs whole rounds until seconds have passed or, when rounds
// is set, for exactly that many rounds.
func (k streamKind) runPhase(streams []stream, seconds float64, rounds int, tr *spanRecorder) (*streamPhase, error) {
	ph := &streamPhase{k: k, meter: meter{tr: tr}}
	for _, in := range streams {
		ph.sessions = append(ph.sessions, &session{in: in, first: make([]uint64, len(in.windows))})
	}
	runtime.GC()
	gc0 := gcCycles()
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
		ph.endRound(ph.released)
	}
	ph.wall = time.Since(start).Seconds()
	ph.gc = gcCycles() - gc0
	for _, s := range ph.sessions {
		if s.st != nil {
			ph.addTransport(s.st.rx.Stats())
			ph.checkTap(s.st.tap)
		}
	}
	return ph, nil
}

func (ph *streamPhase) fail(format string, args ...any) {
	if ph.checkErr == nil {
		ph.checkErr = fmt.Errorf(format, args...)
	}
}

// step hands session s its next window and serves whatever the
// receiver asks for in return.
func (ph *streamPhase) step(s *session) error {
	if s.st == nil {
		st, err := ph.k.newSystem(ph.tr, &ph.decodes)
		if err != nil {
			return err
		}
		if err := ph.k.newLinks(st, s.in.linkSeed); err != nil {
			return err
		}
		s.st, s.next = st, 0
	}
	st := s.st
	if ph.tr != nil {
		ph.tr.window = int32(s.w)
	}
	var blob []byte
	var err error
	ph.gen(&ph.mote, func() {
		var r *mote.Report
		if r, err = st.mote.EncodeWindow(s.in.windows[s.w]); err == nil {
			blob, err = r.Packet.Marshal()
		}
	})
	if err != nil {
		return err
	}
	ph.sent++
	ph.rawBits += core.WindowSize * 12
	ph.wireBits += int64(len(blob)) * 8
	if s.pass == 0 {
		s.firstWire = s.firstWire*31 + uint64(len(blob))
	}
	var frames [][]byte
	ph.gen(&ph.link, func() { frames, _ = st.down.TransmitMulti(blob) })
	ph.deliver(s, frames)

	var ctrl []*core.Packet
	var late []coordinator.Decoded
	d := ph.sys(spanEndSlot, func() { ctrl, late = st.rx.EndSlot() })
	ph.release(s, late, d)
	for _, c := range ctrl {
		if err := ph.serveControl(s, c); err != nil {
			return err
		}
	}
	if ph.k.lossy && s.w%scrapeEvery == scrapeEvery-1 {
		st.scrape.Reset()
		ph.sys(spanScrape, func() { err = telemetry.WritePrometheus(&st.scrape, st.reg) })
		if err != nil {
			return err
		}
		ph.scrapeBytes += int64(st.scrape.Len())
	}
	s.w++
	if s.w == len(s.in.windows) {
		ph.endPass(s)
	}
	return nil
}

// deliver runs frames that reached the coordinator through the
// receiver's integrity check and reassembly.
func (ph *streamPhase) deliver(s *session, frames [][]byte) {
	for _, f := range frames {
		var pkt *core.Packet
		var err error
		ph.sys(spanParse, func() { pkt, err = s.st.rx.ParseFrame(f) })
		if err != nil {
			// The links corrupt no frames, so the integrity check must
			// accept every one that arrives.
			ph.failed++
			continue
		}
		var out []coordinator.Decoded
		d := ph.sys(spanPush, func() { out, err = s.st.rx.Push(pkt) })
		if err != nil {
			ph.failed++
			continue
		}
		ph.release(s, out, d)
	}
}

// serveControl carries one control packet over the uplink and has the
// mote act on it if it arrives.
func (ph *streamPhase) serveControl(s *session, c *core.Packet) error {
	st := s.st
	var up *core.Packet
	var err error
	ph.gen(&ph.link, func() { up, _, err = st.up.TransmitPacket(c) })
	if err != nil || up == nil {
		return err
	}
	if up.Kind == core.KindKeyRequest {
		ph.gen(&ph.mote, st.mote.RequestKeyFrame)
		return nil
	}
	first, count, err := core.NackRange(up)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		var frames [][]byte
		ph.gen(&ph.mote, func() {
			if pkt, ok := st.mote.Retransmit(first + uint32(i)); ok {
				var blob []byte
				if blob, err = pkt.Marshal(); err == nil {
					frames, _ = st.down.TransmitMulti(blob)
				}
			}
		})
		if err != nil {
			return err
		}
		ph.deliver(s, frames)
	}
	return nil
}

// endPass flushes the link, closes the receiver and checks the pass
// against the session's first one.
func (ph *streamPhase) endPass(s *session) {
	var frames [][]byte
	ph.gen(&ph.link, func() { frames = s.st.down.Flush() })
	ph.deliver(s, frames)
	var out []coordinator.Decoded
	d := ph.sys(spanClose, func() { out = s.st.rx.Close() })
	ph.release(s, out, d)
	stats := s.st.rx.Stats()
	ph.addTransport(stats)
	ph.checkTap(s.st.tap)
	if s.pass == 0 {
		s.firstStats = stats
	} else if !reflect.DeepEqual(stats, s.firstStats) {
		ph.fail("record %s pass %d: transport counters %+v differ from the first pass's %+v", s.in.record, s.pass, stats, s.firstStats)
	}
	s.st = nil
	s.w = 0
	s.pass++
}

// release scores and checks the windows one system call released;
// callNs is that call's duration, which is each window's latency.
func (ph *streamPhase) release(s *session, out []coordinator.Decoded, callNs int64) {
	for _, d := range out {
		if d.Seq != 0 {
			// A pass's window 0 opens the session: a fresh decoder solves
			// it cold. Its time counts toward sessions_per_core like every
			// window's, but the latency figures describe a running session.
			ph.latency = append(ph.latency, float64(callNs)/1e6)
		}
		ph.released++
		res := d.Res
		switch {
		case d.Seq < s.next:
			ph.fail("record %s released window %d after window %d", s.in.record, d.Seq, s.next-1)
			continue
		case int(d.Seq) >= len(s.in.windows):
			ph.fail("record %s released window %d of a %d-window pass", s.in.record, d.Seq, len(s.in.windows))
			continue
		case len(res.Samples) != core.WindowSize:
			ph.fail("record %s window %d has %d samples, want %d", s.in.record, d.Seq, len(res.Samples), core.WindowSize)
			continue
		}
		s.next = d.Seq + 1
		ph.iterations += int64(res.Iterations)
		ph.escapes += int64(res.EscapeCount)
		if res.Converged {
			ph.converged++
		}
		src := s.in.windows[d.Seq]
		orig := make([]float64, len(src))
		reco := make([]float64, len(src))
		for i := range src {
			orig[i], reco[i] = float64(src[i]), float64(res.Samples[i])
		}
		prdn, err := metrics.PRDN(orig, reco)
		if err != nil {
			ph.fail("record %s window %d: %v", s.in.record, d.Seq, err)
			continue
		}
		ph.prdnSum += prdn
		if tap := s.st.tap; tap.traced != nil {
			if tap.err != nil {
				ph.checkTap(tap)
			} else if len(tap.estimates) == 0 || math.Float64bits(tap.estimates[0]) != math.Float64bits(d.EstPRDN) {
				ph.fail("record %s window %d: quality estimate %v does not match the traced decode's", s.in.record, d.Seq, d.EstPRDN)
			} else {
				tap.estimates = tap.estimates[1:]
			}
		}
		dg := windowDigest(d)
		switch {
		case s.pass == 0:
			s.first[d.Seq] = dg
		case s.first[d.Seq] != dg:
			ph.fail("record %s pass %d window %d decodes differently from the first pass: state carried across passes or the decode is not deterministic",
				s.in.record, s.pass, d.Seq)
		default:
			ph.replayed++
		}
	}
}

// checkTap collects a tap's disagreement between the traced and the
// reference decode.
func (ph *streamPhase) checkTap(t *decoderTap) {
	if t.err != nil {
		ph.fail("%v", t.err)
	}
}

func (ph *streamPhase) addTransport(s coordinator.TransportStats) {
	t := &ph.transport
	t.Decoded += s.Decoded
	t.DecodeFailures += s.DecodeFailures
	t.Buffered += s.Buffered
	t.Resyncs += s.Resyncs
	t.NacksSent += s.NacksSent
	t.KeyRequestsSent += s.KeyRequestsSent
	t.Abandoned += s.Abandoned
	t.Shed += s.Shed
}

// windowDigest hashes everything a released window carries that a run
// with the same seed must reproduce.
func windowDigest(d coordinator.Decoded) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	r := d.Res
	put(uint64(d.Seq))
	put(uint64(r.Iterations))
	put(math.Float64bits(r.ResidualNorm))
	put(math.Float64bits(d.EstPRDN))
	if r.Converged {
		put(1)
	}
	for _, it := range r.StageIters {
		put(uint64(it))
	}
	for _, v := range r.Samples {
		put(uint64(uint16(v)))
	}
	return h.Sum64()
}

// runDigest combines the sessions' first-pass digests, or returns false
// if some session has not finished its first pass.
func (ph *streamPhase) runDigest() (uint64, bool) {
	h := fnv.New64a()
	for _, s := range ph.sessions {
		if s.pass == 0 {
			return 0, false
		}
		fmt.Fprintf(h, "%s %d %v %+v %d\n", s.in.record, s.in.offset, s.first, s.firstStats, s.firstWire)
	}
	return h.Sum64(), true
}

// notes describe the phase for a human reader.
func (ph *streamPhase) notes(o options) []string {
	return []string{
		fmt.Sprintf("%s seed %d: %d sessions, %d-window passes, CR %.0f, closed loop from one goroutine (GOMAXPROCS %d)",
			ph.k.name, o.seed, len(ph.sessions), ph.k.passWindows, ph.k.cr, runtime.GOMAXPROCS(0)),
		fmt.Sprintf("%d rounds in %.2f s: %d windows sent, %d released, %d checked against their first pass; %.2f s in system calls",
			ph.rounds, ph.wall, ph.sent, ph.released, ph.replayed, float64(ph.sysNs)/1e9),
	}
}

// endToEnd reports the untraced phase's end-to-end metrics.
func (ph *streamPhase) endToEnd(o options, setup float64) (*outcome, error) {
	p50 := median(slices.Clone(ph.latency))
	pct, tailMs, err := tail(ph.latency, minBeyond)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: ph.sent, failed: ph.failed, checkErr: ph.checkErr, notes: ph.notes(o)}
	out.notes = append(out.notes, ph.chunkNote(), fmt.Sprintf("window_ms_tail is p%.2f of %d samples", pct, len(ph.latency)))
	if out.checkErr == nil && ph.k.minMeanIterations > 0 {
		if mean := ratio(float64(ph.iterations), float64(ph.released)); mean < ph.k.minMeanIterations {
			out.checkErr = fmt.Errorf("%.1f FISTA iterations per window, below %.0f: the decode is not solving real windows", mean, ph.k.minMeanIterations)
		}
	}
	if out.checkErr == nil {
		out.checkErr = ph.checkRepeatable(o)
	}
	out.metrics, err = endToEndMetrics(map[string]float64{
		"sessions_per_core":   ph.sessionsPerCoreMedian(ph.released),
		"window_ms_p50":       p50,
		"window_ms_tail":      tailMs,
		"prdn_mean_pct":       ratio(ph.prdnSum, float64(ph.released)),
		"wire_cr_pct":         metrics.CR(int(ph.rawBits), int(ph.wireBits)),
		"alloc_kb_per_window": ratio(float64(ph.allocs)/1024, float64(ph.released)),
		"released_pct":        100 * ratio(float64(ph.released), float64(ph.sent)),
		"setup_s":             setup,
	})
	return out, err
}

// checkRepeatable compares the run's first-pass digest with the one an
// earlier run of the same binary, workload and seed left behind.
func (ph *streamPhase) checkRepeatable(o options) error {
	dg, ok := ph.runDigest()
	if !ok {
		return nil
	}
	return checkDigest(o, dg)
}

// perLayer reports the per-layer metrics: counts and call times from
// the untraced phase, layer times from the traced phase, which decoded
// the same windows.
func (k streamKind) perLayer(o options, plain, traced *streamPhase) (*outcome, error) {
	sum := summarize(traced.tr.spans)
	if err := writeSpans(filepath.Join(o.stateDir, "spans-"+k.name+".tsv.gz"), traced.tr.spans); err != nil {
		return nil, err
	}
	win := float64(plain.released)
	sent := float64(plain.sent)
	iters := float64(traced.iterations)
	decodeNs := float64(plain.decodes.decode.ns)
	rxNs := float64(plain.calls[spanParse].ns + plain.calls[spanPush].ns + plain.calls[spanEndSlot].ns + plain.calls[spanClose].ns)
	scrapeNs := float64(plain.calls[spanScrape].ns)
	tracedSys := traced.sysNs - sum.total[spanRefDecode]
	spcPlain := sessionsPerCore(plain.released, plain.sysNs)
	spcTraced := sessionsPerCore(traced.released, tracedSys)
	decodeParts := float64(sum.total[spanFISTA] + sum.total[spanReconstruct] + sum.total[spanHuffman])
	per100 := func(n int) float64 { return 100 * ratio(float64(n), sent) }

	out := &outcome{attempted: plain.sent + traced.sent, failed: plain.failed + traced.failed, notes: plain.notes(o)}
	out.notes = append(out.notes, traced.notes(o)[1])
	switch {
	case plain.checkErr != nil:
		out.checkErr = plain.checkErr
	case traced.checkErr != nil:
		out.checkErr = traced.checkErr
	case plain.released != traced.released:
		out.checkErr = fmt.Errorf("the traced phase released %d windows, the untraced phase %d", traced.released, plain.released)
	default:
		out.checkErr = plain.checkRepeatable(o)
	}
	var err error
	out.metrics, err = perLayerMetrics(map[string]float64{
		"solver.iterations_per_window": ratio(iters, float64(traced.released)),
		"solver.iter_us":               ratio(float64(sum.total[spanFISTA])/1e3, iters),
		"solver.self_us_per_iter":      ratio(float64(sum.self[spanFISTA])/1e3, iters),
		"solver.alloc_kb_per_solve":    ratio(float64(traced.decodes.solverAllocs)/1024, float64(traced.decodes.solves)),
		"go.gc_per_100_windows":        100 * ratio(float64(plain.gc), win),
		"solver.converged_ratio":       ratio(float64(traced.converged), float64(traced.released)),
		"solver.cold_solves":           100 * ratio(float64(traced.decodes.cold), float64(traced.decodes.solves)),
		"sensing.apply_ns":             sum.meanNs(spanPhiApply),
		"sensing.apply_t_ns":           sum.meanNs(spanPhiApplyT),
		"sensing.calls_per_window":     ratio(float64(sum.n[spanPhiApply]+sum.n[spanPhiApplyT]), float64(traced.decodes.solves)),
		"wavelet.synth_ns":             sum.meanNs(spanPsiSynth),
		"wavelet.analysis_ns":          sum.meanNs(spanPsiAnalysis),
		"huffman.decode_us_per_window": ratio(float64(sum.total[spanHuffman])/1e3, float64(sum.n[spanHuffman])),
		"huffman.escapes_per_window":   ratio(float64(traced.escapes), float64(traced.released)),
		"core.encode_us":               0,
		"core.marshal_us":              0,
		"core.parse_us":                plain.calls[spanParse].meanUs(),
		"core.reconstruct_us":          ratio(float64(sum.total[spanReconstruct])/1e3, float64(sum.n[spanReconstruct])),
		"coordinator.decode_ms":        ratio(decodeNs/1e6, float64(plain.decodes.decode.n)),
		"coordinator.rx_self_us":       ratio((rxNs-decodeNs)/1e3, win),
		"coordinator.nacks":            per100(plain.transport.NacksSent),
		"coordinator.key_requests":     per100(plain.transport.KeyRequestsSent),
		"coordinator.resyncs":          per100(plain.transport.Resyncs),
		"coordinator.abandoned":        per100(plain.transport.Abandoned + plain.transport.Shed),
		"coordinator.buffered":         per100(plain.transport.Buffered),
		"coordinator.overhead_pct":     100 * ratio(rxNs-decodeNs+scrapeNs, float64(plain.sysNs)),
		"metrics.estimate_ns":          sum.meanNs(spanEstimate),
		"telemetry.scrape_us":          plain.calls[spanScrape].meanUs(),
		"telemetry.scrape_bytes":       ratio(float64(plain.scrapeBytes), float64(plain.calls[spanScrape].n)),
		"gen.mote_us":                  ratio(float64(plain.mote.ns)/1e3, sent),
		"gen.link_us":                  ratio(float64(plain.link.ns)/1e3, sent),
		"trace_overhead_pct":           100 * ratio(spcPlain-spcTraced, spcPlain),
		"trace.accounted_pct":          100 * ratio(decodeParts, decodeNs),
	})
	return out, err
}
