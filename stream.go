package csecg

import (
	"fmt"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/energy"
	"csecg/internal/link"
	"csecg/internal/metrics"
	"csecg/internal/monitor"
	"csecg/internal/mote"
	"csecg/internal/telemetry"
)

// StreamConfig describes an end-to-end monitoring session: one record
// channel streamed through the instrumented mote, the Bluetooth link and
// the real-time coordinator.
type StreamConfig struct {
	// RecordID selects the substitute-database record (default "100").
	RecordID string
	// Channel selects the lead (0 or 1).
	Channel int
	// Seconds of signal to stream (default 60).
	Seconds float64
	// Params configures the pipeline.
	Params Params
	// Mode selects the coordinator build the cycle model prices. The
	// zero value is ModeVFP, whose iteration budget is the smaller one.
	Mode coordinator.Mode
	// Link configures the data downlink (zero value → DefaultLinkConfig).
	// RunStream does not model mote clock drift, so ClockDriftPPM must
	// be zero here and in ControlLink; the chaos harness models it.
	Link LinkConfig
	// Transport configures the coordinator's fault-tolerant receive
	// path. The zero value reproduces the paper's baseline: losses are
	// ridden out until the next scheduled key frame. Setting
	// Transport.NACK enables the control channel and the mote's bounded
	// retransmit ring.
	Transport TransportConfig
	// ControlLink configures the uplink carrying NACK/key-request
	// control packets (nil → the data-link config with a derived fault
	// seed, so control traffic sees the same channel quality).
	ControlLink *LinkConfig
	// RetransmitRing overrides the mote's retransmit ring size when the
	// NACK protocol is enabled (0 → mote.DefaultRetransmitRing; must
	// fit the MSP430's 10 kB RAM).
	RetransmitRing int
	// Metrics, when non-nil, attaches every pipeline component to the
	// registry: mote/link/transport/coordinator counters and histograms
	// plus the stream-level decode-latency series. It may be shared by
	// several sessions; the report's distribution summaries always
	// cover this session alone.
	Metrics *telemetry.Registry
	// Spans, when non-nil, captures every window's hierarchical causal
	// span tree on the modeled timeline: trace-ID-stamped spans from
	// acquisition end through encode, transmit, per-retransmit attempts,
	// link transit, reorder/queue wait, the solver rung (with
	// continuation sub-stages) and reconstruction — depth-1 leaves tile
	// the end-to-end decode latency exactly. The tracer tail-samples
	// anomalous windows, feeds the csecg_window_stage_seconds exemplar
	// histograms, and seeds the receiver/flight recorder with the same
	// trace IDs (DESIGN.md §14). A RetainAll tracer also turns on the
	// solver's per-iteration trace and keeps up to
	// telemetry.MaxIterPoints downsampled iterations per window — the
	// Chrome trace's counter tracks (telemetry.WriteChromeTrace).
	Spans *telemetry.CausalTracer
	// Clock times the host-side solve for the wall-time histogram
	// (nil → telemetry.WallClock; inject a ManualClock in tests).
	Clock telemetry.Clock
	// Observer, when non-nil, receives live per-window quality/latency
	// status and per-slot transport health on the modeled timeline —
	// the feed behind the monitor plane's /readyz and /sessions.
	Observer monitor.Observer
	// Recorder, when non-nil, is attached to the receive path as the
	// session's black-box flight recorder: it rings recent frames and
	// decode summaries and seals diagnostics bundles on anomaly
	// triggers. RunStream fills in the session metadata a bundle needs
	// for deterministic replay and points the recorder at the session
	// registry.
	Recorder *blackbox.Recorder
}

// StreamReport aggregates a session.
type StreamReport struct {
	// Windows encoded by the mote; Lost counts frames the downlink
	// destroyed (dropped plus checksum-rejected corruption), including
	// lost retransmission attempts; Decoded counts the windows actually
	// reconstructed — under loss this is smaller than Windows−Lost
	// whenever desynchronized deltas had to be discarded too.
	Windows, Lost, Decoded int
	// MeanPRDN and WorstPRDN summarize reconstruction quality over the
	// successfully decoded windows (excluding the cold-start window).
	MeanPRDN, WorstPRDN float64
	// MeanEstPRDN and BadWindows summarize the ground-truth-free
	// quality estimate over every decoded window: what a deployed
	// coordinator — which never sees the original signal — would
	// report. BadWindows counts estimates past the paper's 9 % "good"
	// boundary.
	MeanEstPRDN float64
	BadWindows  int
	// WireCR is the overall compression ratio of Eq. (7) including
	// packet framing, against 12-bit raw streaming.
	WireCR float64
	// MoteCPU and CoordinatorCPU are mean modeled CPU shares.
	MoteCPU, CoordinatorCPU float64
	// MeanIterations and MeanDecodeTime characterize the recovery cost.
	MeanIterations float64
	// MeanDecodeTime is the modeled on-device decode time per packet.
	MeanDecodeTime time.Duration
	// AirtimePerWindow is the radio-on time per 2-second window,
	// including retransmission airtime.
	AirtimePerWindow time.Duration
	// RetransmitAirtime is the share of downlink airtime spent on
	// NACK-driven retransmissions; Retransmits counts the ring hits the
	// mote served.
	RetransmitAirtime time.Duration
	Retransmits       int64
	// LifetimeRaw and LifetimeCS are modeled node lifetimes streaming
	// uncompressed versus CS-compressed; Extension is their ratio − 1.
	LifetimeRaw, LifetimeCS time.Duration
	// Extension is the relative lifetime gain (the paper: 12.9% at CR 50).
	Extension float64
	// Display is the viewer simulation over the session's decode times.
	Display *coordinator.DisplayReport
	// CRCRejected counts wire frames the receiver's ingest integrity
	// check refused — channel corruption stopped before the decoder.
	CRCRejected int
	// DegradedWindows counts decodes flagged reduced-quality by the
	// coordinator's degradation ladder or the solver's soft deadline.
	DegradedWindows int
	// Shed counts windows dropped by the receiver's bounded admission
	// queue under overload (oldest non-key first).
	Shed int
	// Transport reports the receiver's gap/resync accounting: gap
	// episodes, longest outage, recovery latency distribution, control
	// traffic.
	Transport TransportStats
	// LinkStats and ControlStats snapshot the fault counters of the
	// data downlink and the control uplink.
	LinkStats, ControlStats link.Stats
	// DecodeLatency is the per-window recovery latency distribution in
	// nanoseconds: end of the window's acquisition to reconstruction
	// available, including reorder/retransmit slot delays — the
	// per-window accounting behind the session-mean MeanDecodeTime.
	DecodeLatency telemetry.Summary
	// SolverIterations is the per-window FISTA iteration distribution.
	SolverIterations telemetry.Summary
	// BundlesWritten counts the diagnostics bundles the session's
	// flight recorder sealed (0 when no Recorder was configured).
	BundlesWritten int
}

// RunStream executes the full pipeline and returns the session report.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	if cfg.Link.ClockDriftPPM != 0 {
		return nil, fmt.Errorf("csecg: StreamConfig.Link.ClockDriftPPM = %v: RunStream does not model clock drift", cfg.Link.ClockDriftPPM)
	}
	if cfg.ControlLink != nil && cfg.ControlLink.ClockDriftPPM != 0 {
		return nil, fmt.Errorf("csecg: StreamConfig.ControlLink.ClockDriftPPM = %v: RunStream does not model clock drift", cfg.ControlLink.ClockDriftPPM)
	}
	if cfg.RecordID == "" {
		cfg.RecordID = "100"
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 60
	}
	if cfg.Link.EffectiveBitrate == 0 {
		cfg.Link = DefaultLinkConfig()
	}
	rec, err := RecordByID(cfg.RecordID)
	if err != nil {
		return nil, err
	}
	samples, err := rec.Channel256(cfg.Seconds, cfg.Channel)
	if err != nil {
		return nil, err
	}
	m, err := mote.New(cfg.Params)
	if err != nil {
		return nil, err
	}
	dec, err := coordinator.NewRealTimeDecoder(cfg.Params, cfg.Mode)
	if err != nil {
		return nil, err
	}
	lnk, err := link.New(cfg.Link)
	if err != nil {
		return nil, err
	}
	var ctrl *link.Link
	if cfg.Transport.NACK {
		ring := cfg.RetransmitRing
		if ring == 0 {
			ring = mote.DefaultRetransmitRing
		}
		if err := m.EnableRetransmitBuffer(ring); err != nil {
			return nil, err
		}
		ctrlCfg := cfg.Link
		// Decorrelate the uplink's fault stream from the downlink's.
		ctrlCfg.Seed = cfg.Link.Seed ^ 0x9E3779B97F4A7C15
		if cfg.ControlLink != nil {
			ctrlCfg = *cfg.ControlLink
		}
		if ctrl, err = link.New(ctrlCfg); err != nil {
			return nil, err
		}
	}
	rx := coordinator.NewReceiver(dec, cfg.Transport)

	spans := cfg.Spans
	if spans != nil {
		// One seed derives every window's trace ID identically across the
		// span tracer, the receiver's flight-recorder captures and the
		// monitor's /sessions links.
		rx.SetTracer(spans)
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if cfg.Recorder != nil {
		// Resolved params and mode, not the user's input: replay must
		// rebuild exactly this decoder without re-deriving defaults.
		meta := blackbox.NewSessionMeta("", dec.Params(), dec.Mode(), cfg.Transport)
		if spans != nil {
			meta.TraceSeed = spans.Seed()
		}
		cfg.Recorder.SetMeta(meta)
		cfg.Recorder.AttachRegistry(reg)
		rx.SetRecorder(cfg.Recorder)
	}
	m.Instrument(reg)
	lnk.Instrument(reg, "link")
	if ctrl != nil {
		ctrl.Instrument(reg, "ctrl")
	}
	rx.Instrument(reg)
	dec.Instrument(reg, cfg.Clock)
	if spans != nil && spans.RetainsAll() {
		dec.EnableIterationTrace()
	}
	// The registry may be shared across sessions; the report summarizes
	// this session's windows only.
	latHist := reg.Histogram("stream_decode_latency_ns")
	var sessLat, sessIters telemetry.Histogram

	rep := &StreamReport{}
	var rawBits, compBits int
	var sumPRDN float64
	var prCount int
	var sumEst float64
	var estCount int
	var decodeTimes []float64
	var sumDecode time.Duration
	n := cfg.Params.N
	if n == 0 {
		n = WindowSize
	}

	// Modeled session timeline, in nanoseconds: window w's acquisition
	// fills [w·T, (w+1)·T); encode and transmit of window w run while
	// window w+1 is being acquired (double-buffered ADC). nowNs tracks
	// the mote/link side; the coordinator's single decode core is
	// serialized through decodeFreeAt.
	windowNs := int64(float64(n) / FsMote * float64(time.Second))
	cyclesToNs := func(c int64) int64 { return c * int64(time.Second) / mote.ClockHz }
	reconstructNs := int64(coordinator.DefaultCosts().IterationTime(dec.Params(), cfg.Mode))
	closer := coordinator.NewSpanCloser(spans, rx, reconstructNs)
	var nowNs, decodeFreeAt int64
	rxAt := map[uint32]int64{}      // per-seq arrival time of the delivered frame
	retxAttempt := map[uint32]int{} // per-seq NACK retransmission attempts served

	// Windows indexed by sequence number, for scoring late releases.
	var wins [][]int16
	score := func(out []coordinator.Decoded) {
		for _, d := range out {
			sumDecode += d.Res.ModeledTime
			decodeTimes = append(decodeTimes, d.Res.ModeledTime.Seconds())

			// Window lifecycle on the coordinator: the frame arrived at
			// rxAt, waited in the reorder buffer until released (now, or
			// until the decode core freed up), then solved and
			// reconstructed.
			arrive := rxAt[d.Seq]
			start := nowNs
			if arrive > start {
				start = arrive
			}
			if decodeFreeAt > start {
				start = decodeFreeAt
			}
			decodeFreeAt = start + int64(d.Res.ModeledTime) + reconstructNs
			// Per-window recovery latency: acquisition end → samples ready.
			latency := decodeFreeAt - (int64(d.Seq)+1)*windowNs
			latHist.Observe(latency)
			sessLat.Observe(latency)
			sessIters.Observe(int64(d.Res.Iterations))
			if spans != nil {
				wt := spans.Lookup(d.Seq)
				if wt != nil {
					// The depth-1 leaves must tile [acquisition end,
					// decodeFreeAt) exactly, so the gap between the
					// transmit frontier and the frame's arrival becomes an
					// explicit link-transit span.
					if f := wt.FrontierNs(); arrive > f {
						wt.Leaf(telemetry.StageLinkTransit, f, arrive-f)
					}
					wt.Leaf(telemetry.StageReassemble, arrive, start-arrive)
				}
				closer.Close(wt, d, start)
			}
			sumEst += d.EstPRDN
			estCount++
			if d.Bad {
				rep.BadWindows++
			}
			if d.Res.Degraded {
				rep.DegradedWindows++
			}
			if cfg.Observer != nil {
				var tid uint64
				if spans != nil {
					tid = spans.TraceID(d.Seq)
				}
				cfg.Observer.OnWindow(monitor.WindowStatus{
					Seq:        d.Seq,
					EstPRDN:    d.EstPRDN,
					Bad:        d.Bad,
					Residual:   d.Res.ResidualNorm,
					Iterations: d.Res.Iterations,
					Converged:  d.Res.Converged,
					Degraded:   d.Res.Degraded,
					Rung:       d.Res.Rung,
					LatencyNs:  latency,
					TimelineNs: decodeFreeAt,
					TraceID:    tid,
				})
			}

			if d.Seq == 0 || int(d.Seq) >= len(wins) {
				continue // cold start is excluded from the quality stats
			}
			win := wins[d.Seq]
			orig := make([]float64, n)
			reco := make([]float64, n)
			for i := range win {
				orig[i] = float64(win[i])
				reco[i] = float64(d.Res.Samples[i])
			}
			prdn, err := metrics.PRDN(orig, reco)
			if err == nil {
				sumPRDN += prdn
				prCount++
				if prdn > rep.WorstPRDN {
					rep.WorstPRDN = prdn
				}
			}
		}
	}
	// deliver runs every wire frame the channel produced through the
	// receiver's integrity check and reassembly; a CRC-rejected frame is
	// counted and dropped like a channel loss. rxEnd places the arrival
	// on the modeled timeline.
	deliver := func(frames [][]byte, rxEnd int64) error {
		for _, f := range frames {
			p, err := rx.ParseFrame(f)
			if err != nil {
				continue // corrupt on the wire: rejected at ingest
			}
			rxAt[p.Seq] = rxEnd
			out, err := rx.Push(p)
			if err != nil {
				return err
			}
			score(out)
		}
		return nil
	}
	// transmit marshals one packet onto the downlink, returning the
	// delivered wire frames and the modeled airtime.
	transmit := func(p *core.Packet) ([][]byte, int64, error) {
		blob, err := p.Marshal()
		if err != nil {
			return nil, 0, err
		}
		frames, at := lnk.TransmitMulti(blob)
		return frames, int64(at), nil
	}
	// serveControl carries one control packet over the uplink and, when
	// it survives, has the mote act on it. Retransmitted frames cross
	// the same lossy downlink as everything else.
	serveControl := func(c *core.Packet) error {
		up, ctrlAt, err := ctrl.TransmitPacket(c)
		nowNs += int64(ctrlAt)
		if err != nil || up == nil {
			return err
		}
		switch up.Kind {
		case core.KindNack:
			first, count, err := core.NackRange(up)
			if err != nil {
				return err
			}
			for i := 0; i < count; i++ {
				pkt, ok := m.Retransmit(first + uint32(i))
				if !ok {
					continue // aged out of the ring
				}
				before := lnk.Stats().Airtime
				frames, txNs, err := transmit(pkt)
				if err != nil {
					return err
				}
				rep.RetransmitAirtime += lnk.Stats().Airtime - before
				if spans != nil {
					if wt := spans.Lookup(pkt.Seq); wt != nil {
						// The gap since the window's last span is the time
						// spent waiting for loss detection and the NACK
						// round trip; the attempt itself is its own leaf.
						att := retxAttempt[pkt.Seq] + 1
						retxAttempt[pkt.Seq] = att
						if f := wt.FrontierNs(); nowNs > f {
							wt.Leaf(telemetry.StageRetransmitWait, f, nowNs-f)
						}
						wt.AttemptLeaf(telemetry.StageRetransmit, nowNs, txNs, att)
						wt.Mark(telemetry.FlagRetransmit)
					}
				}
				nowNs += txNs
				if err := deliver(frames, nowNs); err != nil {
					return err
				}
			}
		case core.KindKeyRequest:
			m.RequestKeyFrame()
		}
		return nil
	}

	// reportSlot feeds the observer the receiver's per-slot health.
	reportSlot := func() {
		if cfg.Observer == nil {
			return
		}
		st := rx.Stats()
		cfg.Observer.OnSlot(monitor.SlotStatus{
			Slot:       rep.Windows,
			Windows:    rep.Windows,
			Health:     rx.Health(),
			Decoded:    st.Decoded,
			Abandoned:  st.Abandoned,
			Gaps:       st.Gaps,
			Recoveries: st.Recoveries,
			GapRate:    rx.GapRate(),
			TimelineNs: nowNs,
		})
	}

	for o := 0; o+n <= len(samples); o += n {
		w := int64(rep.Windows)
		win := samples[o : o+n]
		mr, err := m.EncodeWindow(win)
		if err != nil {
			return nil, fmt.Errorf("csecg: encoding window %d: %w", rep.Windows, err)
		}
		rep.Windows++
		wins = append(wins, win)
		rawBits += n * 12
		compBits += mr.Packet.WireSize() * 8

		if encStart := (w + 1) * windowNs; encStart > nowNs {
			nowNs = encStart
		}
		csNs := cyclesToNs(mr.MeasureCycles + mr.ShiftCycles)
		diffNs := cyclesToNs(mr.DiffCycles)
		huffNs := cyclesToNs(mr.EntropyCycles + mr.FramingCycles)
		var wt *telemetry.WindowTrace
		if spans != nil {
			// The causal tree is rooted at acquisition end — the moment
			// the window's samples exist and the latency clock starts. If
			// the mote was still transmitting the previous window, that
			// backlog shows up as an explicit encode-wait leaf.
			acqEnd := (w + 1) * windowNs
			wt = spans.Begin(uint32(w))
			wt.Root(acqEnd)
			if nowNs > acqEnd {
				wt.Leaf(telemetry.StageEncodeWait, acqEnd, nowNs-acqEnd)
			}
			wt.Leaf(telemetry.StageCSSample, nowNs, csNs)
			wt.Leaf(telemetry.StageDiff, nowNs+csNs, diffNs)
			wt.Leaf(telemetry.StageHuffman, nowNs+csNs+diffNs, huffNs)
		}
		nowNs += csNs + diffNs + huffNs

		frames, txNs, err := transmit(mr.Packet)
		if err != nil {
			return nil, err
		}
		if wt != nil {
			wt.Leaf(telemetry.StageTX, nowNs, txNs)
		}
		nowNs += txNs
		if err := deliver(frames, nowNs); err != nil {
			return nil, err
		}
		ctrlPkts, late := rx.EndSlot()
		score(late)
		for _, c := range ctrlPkts {
			if ctrl != nil {
				if err := serveControl(c); err != nil {
					return nil, err
				}
			}
		}
		reportSlot()
	}
	if rep.Windows == 0 {
		return nil, fmt.Errorf("csecg: record shorter than one window")
	}
	// End of session: the reorder model releases anything still held,
	// then the receiver abandons what never arrived.
	if err := deliver(lnk.Flush(), nowNs); err != nil {
		return nil, err
	}
	score(rx.Close())
	reportSlot()

	rep.Transport = rx.Stats()
	rep.Decoded = rep.Transport.Decoded
	rep.CRCRejected = rep.Transport.Rejected
	rep.Shed = rep.Transport.Shed
	rep.Retransmits = m.Retransmits()
	if prCount > 0 {
		rep.MeanPRDN = sumPRDN / float64(prCount)
	}
	if estCount > 0 {
		rep.MeanEstPRDN = sumEst / float64(estCount)
	}
	if rep.Decoded > 0 {
		rep.MeanIterations = float64(sessIters.Sum()) / float64(rep.Decoded)
		rep.MeanDecodeTime = sumDecode / time.Duration(rep.Decoded)
	}
	rep.WireCR = metrics.CR(rawBits, compBits)
	rep.MoteCPU = m.AverageCPUUsage()
	rep.CoordinatorCPU = dec.AverageCPUUsage()
	rep.DecodeLatency = sessLat.Summarize()
	rep.SolverIterations = sessIters.Summarize()
	if cfg.Recorder != nil {
		rep.BundlesWritten = cfg.Recorder.BundlesWritten()
	}

	// Energy: compare against streaming the raw 12-bit samples. The
	// downlink airtime already includes every retransmission the mote
	// served, so lossy sessions pay for their recovery honestly.
	st := lnk.Stats()
	rep.LinkStats = st
	if ctrl != nil {
		rep.ControlStats = ctrl.Stats()
	}
	rep.Lost = int(st.Dropped + st.Corrupted)
	windowSeconds := float64(n) / FsMote
	rep.AirtimePerWindow = st.Airtime / time.Duration(rep.Windows)
	budget := energy.DefaultBudget()
	rawAirtime := lnk.Airtime(n * 12 / 8)
	rawLoad, err := energy.LoadFromAirtime(rawAirtime, 0, windowSeconds)
	if err != nil {
		return nil, err
	}
	csLoad, err := energy.LoadFromAirtime(rep.AirtimePerWindow,
		time.Duration(rep.MoteCPU*windowSeconds*float64(time.Second)), windowSeconds)
	if err != nil {
		return nil, err
	}
	if rep.LifetimeRaw, err = budget.Lifetime(rawLoad); err != nil {
		return nil, err
	}
	if rep.LifetimeCS, err = budget.Lifetime(csLoad); err != nil {
		return nil, err
	}
	rep.Extension = rep.LifetimeCS.Seconds()/rep.LifetimeRaw.Seconds() - 1

	if len(decodeTimes) > 0 {
		rep.Display, err = coordinator.SimulateDisplay(coordinator.DisplayConfig{}, windowSeconds, decodeTimes)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
