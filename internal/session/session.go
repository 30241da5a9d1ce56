// Package session is the one monitoring-session loop: windows are
// encoded by the instrumented mote, carried over the modeled Bluetooth
// link, reassembled by the coordinator's receiver and decoded on one
// serialized decode core, on a single modeled timeline. csecg.RunStream
// feeds it a database record; the chaos harness feeds it a synthetic
// signal plus Faults.
package session

import (
	"fmt"
	"sort"
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

// Faults are the pipeline faults a session injects on top of the
// channel faults of link.Config and the transport pressure of
// coordinator.TransportConfig. The zero value injects none.
type Faults struct {
	// RebootAt reboots the mote (sequence space restarts at a key
	// frame) before encoding the given slot's window (0 = never).
	RebootAt int

	// Slowdown multiplies the coordinator's modeled cycle costs during
	// the middle third of the session (≤ 1 = nominal). The solver
	// tolerance is pinned off so every decode spends its full iteration
	// budget — the worst-case window the ladder must absorb. The rung
	// follows the modeled costs: 2× halves the iteration cap.
	Slowdown float64

	// BurstArrival delivers frames in batches of this many window
	// periods, with one receiver slot per batch (0 or 1 = paced
	// arrival), pressuring the admission queue.
	BurstArrival int

	// PanicEvery injects a decode panic on every n-th decode attempt
	// (0 = never); the receiver's containment must absorb each one.
	PanicEvery int
}

// Config describes one session. A Link with a zero EffectiveBitrate
// takes link.DefaultConfig's rate and overhead and keeps its faults; the
// remaining fields follow csecg.StreamConfig.
type Config struct {
	Params    core.Params
	Mode      coordinator.Mode
	Link      link.Config
	Transport coordinator.TransportConfig
	Metrics   *telemetry.Registry
	Spans     *telemetry.CausalTracer
	Clock     telemetry.Clock
	Observer  monitor.Observer
	Recorder  *blackbox.Recorder
	Faults

	// Slots is the session length in window periods.
	Slots int
	// Window returns the samples of a window acquired in the given slot
	// (called twice for a slot whose mote clock drift slipped in an
	// extra window), or nil when the signal is exhausted, which ends the
	// session early.
	Window func(slot int) []int16
}

// Report aggregates a session.
type Report struct {
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
	// P99DecodeTime is the nearest-rank 99th percentile of the modeled
	// decode times.
	P99DecodeTime time.Duration
	// AirtimePerWindow is the radio-on time per window, including
	// retransmission airtime.
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
	// MaxRung is the deepest degradation rung a window decoded at;
	// FinalRung is the ladder's rung and FinalHealth the receiver's
	// health at session end.
	MaxRung, FinalRung coordinator.Rung
	FinalHealth        coordinator.Health
	// Shed counts windows dropped by the receiver's bounded admission
	// queue under overload (oldest non-key first).
	Shed int
	// Transport reports the receiver's gap/resync accounting: gap
	// episodes, longest outage, recovery latency distribution, control
	// traffic.
	Transport coordinator.TransportStats
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

// window is the driver's per-window state, indexed by encode order: a
// mote reboot restarts the sequence number, not the encode index.
type window struct {
	samples []int16
	// acqEnd is the acquisition end (the latency clock's start) and
	// arrive the coordinator arrival of the delivered frame.
	acqEnd, arrive int64
	// retx counts the NACK retransmission attempts served.
	retx int
}

// panicDecoder injects a decode panic on every n-th decode attempt.
type panicDecoder struct {
	coordinator.Decoder
	every int
	calls int
}

func (p *panicDecoder) Decode(pkt *core.Packet) (*coordinator.Result, error) {
	p.calls++
	if p.calls%p.every == 0 {
		panic(fmt.Sprintf("session: injected fault on window %d", pkt.Seq))
	}
	return p.Decoder.Decode(pkt)
}

// Run executes the session and returns its report.
func Run(cfg Config) (*Report, error) {
	m, err := mote.New(cfg.Params)
	if err != nil {
		return nil, err
	}
	dec, err := coordinator.NewRealTimeDecoder(cfg.Params, cfg.Mode)
	if err != nil {
		return nil, err
	}
	if cfg.Link.EffectiveBitrate == 0 {
		def := link.DefaultConfig()
		cfg.Link.EffectiveBitrate, cfg.Link.OverheadBytes = def.EffectiveBitrate, def.OverheadBytes
	}
	lnk, err := link.New(cfg.Link)
	if err != nil {
		return nil, err
	}
	var ctrl *link.Link
	if cfg.Transport.NACK {
		if err := m.EnableRetransmitBuffer(mote.DefaultRetransmitRing); err != nil {
			return nil, err
		}
		// The uplink carries control packets over the same channel, with
		// its fault stream decorrelated from the downlink's.
		ctrlCfg := cfg.Link
		ctrlCfg.Seed = cfg.Link.Seed ^ 0x9E3779B97F4A7C15
		if ctrl, err = link.New(ctrlCfg); err != nil {
			return nil, err
		}
	}
	if cfg.Slowdown > 1 {
		// Worst-case windows: no early convergence, every decode spends
		// the full iteration budget of its rung.
		tun, err := dec.SolverTuning()
		if err != nil {
			return nil, err
		}
		tun.SolverOptions.Tol = -1
	}
	var rxDec coordinator.Decoder = dec
	if cfg.PanicEvery > 0 {
		rxDec = &panicDecoder{Decoder: dec, every: cfg.PanicEvery}
	}
	rx := coordinator.NewReceiver(rxDec, cfg.Transport)

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
		// Resolved params and mode, not the caller's input: replay must
		// rebuild exactly this decoder without re-deriving defaults.
		meta := blackbox.NewSessionMeta("", dec.Params(), dec.Mode(), cfg.Transport)
		if spans != nil {
			meta.TraceSeed = spans.Seed()
		}
		cfg.Recorder.SetMeta(meta)
		if cfg.Slowdown > 1 {
			cfg.Recorder.MarkUnreproducible("solver costs perturbed mid-run (slowdown scenario)")
		}
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

	rep := &Report{}
	var rawBits, compBits int
	var sumPRDN float64
	var prCount int
	var sumEst float64
	var decodeNs []time.Duration
	n := dec.Params().N

	// Modeled session timeline, in nanoseconds: slot w's acquisition
	// fills [w·T, (w+1)·T); encode and transmit of a window run while
	// the next one is being acquired (double-buffered ADC). nowNs tracks
	// the mote/link side; the coordinator's single decode core is
	// serialized through decodeFreeAt.
	windowNs := int64(float64(n) / core.FsMote * float64(time.Second))
	cyclesToNs := func(c int64) int64 { return c * int64(time.Second) / mote.ClockHz }
	reconstructNs := int64(coordinator.DefaultCosts().IterationTime(dec.Params(), cfg.Mode))
	closer := coordinator.NewSpanCloser(spans, rx, reconstructNs)
	var nowNs, decodeFreeAt int64
	var wins []window
	// byseq maps a sequence number to the encode index of the current
	// boot's window; a reboot reuses a number only after the previous
	// boot's window carrying it has been released or given up.
	byseq := map[uint32]int{}

	score := func(out []coordinator.Decoded) {
		for _, d := range out {
			k := byseq[d.Seq]
			win := &wins[k]
			decodeNs = append(decodeNs, d.Res.ModeledTime)
			if d.Res.Rung > rep.MaxRung {
				rep.MaxRung = d.Res.Rung
			}

			// Window lifecycle on the coordinator: the frame arrived,
			// waited in the reorder buffer until released (now, or until
			// the decode core freed up), then solved and reconstructed.
			start := max(nowNs, win.arrive, decodeFreeAt)
			decodeFreeAt = start + int64(d.Res.ModeledTime) + reconstructNs
			// Per-window recovery latency: acquisition end → samples ready.
			latency := decodeFreeAt - win.acqEnd
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
					if f := wt.FrontierNs(); win.arrive > f {
						wt.Leaf(telemetry.StageLinkTransit, f, win.arrive-f)
					}
					wt.Leaf(telemetry.StageReassemble, win.arrive, start-win.arrive)
				}
				closer.Close(wt, d, start)
			}
			sumEst += d.EstPRDN
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

			if k == 0 {
				continue // cold start is excluded from the quality stats
			}
			orig := make([]float64, n)
			reco := make([]float64, n)
			for i := range win.samples {
				orig[i] = float64(win.samples[i])
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
			if k, ok := byseq[p.Seq]; ok {
				wins[k].arrive = rxEnd
			}
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
						win := &wins[byseq[pkt.Seq]]
						win.retx++
						if f := wt.FrontierNs(); nowNs > f {
							wt.Leaf(telemetry.StageRetransmitWait, f, nowNs-f)
						}
						wt.AttemptLeaf(telemetry.StageRetransmit, nowNs, txNs, win.retx)
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
	reportSlot := func(slot int) {
		if cfg.Observer == nil {
			return
		}
		st := rx.Stats()
		cfg.Observer.OnSlot(monitor.SlotStatus{
			Slot:       slot,
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

	// encode acquires, encodes and transmits one window of slot w; its
	// frames wait in pending for the slot's delivery batch. It reports
	// false when the signal is exhausted.
	var pending [][]byte
	encode := func(w int) (bool, error) {
		samples := cfg.Window(w)
		if samples == nil {
			return false, nil
		}
		mr, err := m.EncodeWindow(samples)
		if err != nil {
			return false, fmt.Errorf("session: encoding window %d: %w", rep.Windows, err)
		}
		acqEnd := int64(w+1) * windowNs
		byseq[mr.Packet.Seq] = len(wins)
		wins = append(wins, window{samples: samples, acqEnd: acqEnd})
		rep.Windows++
		rawBits += n * 12
		compBits += mr.Packet.WireSize() * 8

		nowNs = max(nowNs, acqEnd)
		csNs := cyclesToNs(mr.MeasureCycles + mr.ShiftCycles)
		diffNs := cyclesToNs(mr.DiffCycles)
		huffNs := cyclesToNs(mr.EntropyCycles + mr.FramingCycles)
		var wt *telemetry.WindowTrace
		if spans != nil {
			// The causal tree is rooted at acquisition end — the moment
			// the window's samples exist and the latency clock starts. If
			// the mote was still transmitting an earlier window, that
			// backlog shows up as an explicit encode-wait leaf.
			wt = spans.Begin(mr.Packet.Seq)
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
			return false, err
		}
		if wt != nil {
			wt.Leaf(telemetry.StageTX, nowNs, txNs)
		}
		nowNs += txNs
		pending = append(pending, frames...)
		return true, nil
	}

	burst := max(cfg.BurstArrival, 1)
	slow := coordinator.DefaultCosts()
	slow.VFPCyclesPerMAC *= cfg.Slowdown
	slow.NEONCyclesPerMAC *= cfg.Slowdown
	var skewUsed time.Duration
	batched := 0 // windows encoded since the last receiver slot
	slot := 0
	for w := 0; w < cfg.Slots; w++ {
		if cfg.Slowdown > 1 {
			switch w {
			case cfg.Slots / 3:
				dec.SetCosts(slow)
			case 2 * cfg.Slots / 3:
				dec.SetCosts(coordinator.DefaultCosts())
			}
		}
		if cfg.RebootAt > 0 && w == cfg.RebootAt {
			m.Reboot()
		}
		more, err := encode(w)
		if err != nil {
			return nil, err
		}
		if more {
			batched++
			// A fast mote clock squeezes an extra window into the slot.
			if skew := lnk.EndWindow(time.Duration(windowNs)); skew-skewUsed >= time.Duration(windowNs) {
				skewUsed += time.Duration(windowNs)
				if more, err = encode(w); err != nil {
					return nil, err
				}
				if more {
					batched++
				}
			}
		}
		if batched > 0 && (!more || (w+1)%burst == 0 || w == cfg.Slots-1) {
			// One receiver slot per delivery batch: the batch's frames
			// arrive together after its last transmission.
			frames := pending
			pending = nil
			batched = 0
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
			slot = w + 1
			reportSlot(slot)
		}
		if !more {
			break
		}
	}
	if rep.Windows == 0 {
		return nil, fmt.Errorf("session: signal shorter than one window")
	}
	// End of session: the reorder model releases anything still held,
	// then the receiver abandons what never arrived.
	if err := deliver(lnk.Flush(), nowNs); err != nil {
		return nil, err
	}
	score(rx.Close())
	reportSlot(slot)

	rep.Transport = rx.Stats()
	rep.Decoded = rep.Transport.Decoded
	rep.BadWindows = rep.Transport.BadWindows
	rep.CRCRejected = rep.Transport.Rejected
	rep.Shed = rep.Transport.Shed
	rep.FinalRung = dec.Rung()
	rep.FinalHealth = rx.Health()
	rep.Retransmits = m.Retransmits()
	if prCount > 0 {
		rep.MeanPRDN = sumPRDN / float64(prCount)
	}
	if rep.Decoded > 0 {
		rep.MeanEstPRDN = sumEst / float64(rep.Decoded)
		rep.MeanIterations = float64(sessIters.Sum()) / float64(rep.Decoded)
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
	windowSeconds := float64(n) / core.FsMote
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

	if len(decodeNs) > 0 {
		decodeTimes := make([]float64, len(decodeNs))
		var sum time.Duration
		for i, d := range decodeNs {
			decodeTimes[i] = d.Seconds()
			sum += d
		}
		rep.MeanDecodeTime = sum / time.Duration(len(decodeNs))
		if rep.Display, err = coordinator.SimulateDisplay(coordinator.DisplayConfig{}, windowSeconds, decodeTimes); err != nil {
			return nil, err
		}
		sort.Slice(decodeNs, func(i, j int) bool { return decodeNs[i] < decodeNs[j] })
		rep.P99DecodeTime = decodeNs[min((len(decodeNs)*99+99)/100, len(decodeNs))-1]
	}
	return rep, nil
}
