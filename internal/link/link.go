// Package link models the Bluetooth transport between the mote and the
// coordinator: serial-port-profile framing over a class-2 module (the
// Shimmer mainboard carries a Bluetooth module driven by the MSP430's
// UART; the coordinator side uses BTStack).
//
// The model captures what the energy evaluation needs — per-packet
// airtime at an effective payload rate plus per-packet protocol
// overhead — and what the robustness tests need: deterministic, seeded
// fault injection. Losses follow either an i.i.d. Bernoulli model
// (DropProb) or a Gilbert–Elliott two-state burst channel (Burst), and
// the link can additionally corrupt, reorder, duplicate and
// jitter-delay frames. Every injected fault is surfaced through Stats.
package link

import (
	"fmt"
	"time"

	"csecg/internal/core"
	"csecg/internal/rng"
	"csecg/internal/telemetry"
)

// BurstConfig parameterizes the Gilbert–Elliott two-state burst-loss
// channel: the link alternates between a good and a bad state with
// per-packet transition probabilities, and each state drops packets at
// its own rate. The classic Gilbert model (good never drops, bad always
// drops) is the default: a zero LossBad is treated as 1.
type BurstConfig struct {
	// PGoodBad (p) is the per-packet good→bad transition probability.
	PGoodBad float64
	// PBadGood (r) is the per-packet bad→good transition probability.
	// Mean burst length is 1/r packets.
	PBadGood float64
	// LossGood is the loss probability while in the good state
	// (default 0).
	LossGood float64
	// LossBad is the loss probability while in the bad state. Zero is
	// treated as 1 (the classic Gilbert channel).
	LossBad float64
}

// normalized applies the LossBad default.
func (b BurstConfig) normalized() BurstConfig {
	if b.LossBad == 0 {
		b.LossBad = 1
	}
	return b
}

// StationaryLoss returns the long-run packet loss rate of the chain:
// π_bad·LossBad + π_good·LossGood with π_bad = p/(p+r). For the default
// Gilbert channel this is p/(p+r).
func (b BurstConfig) StationaryLoss() float64 {
	b = b.normalized()
	denom := b.PGoodBad + b.PBadGood
	if denom == 0 {
		// The chain never leaves its initial (good) state.
		return b.LossGood
	}
	piBad := b.PGoodBad / denom
	return piBad*b.LossBad + (1-piBad)*b.LossGood
}

// validate checks all probabilities.
func (b BurstConfig) validate() error {
	for _, p := range []float64{b.PGoodBad, b.PBadGood, b.LossGood, b.LossBad} {
		if p < 0 || p > 1 {
			return fmt.Errorf("link: burst probability %v out of [0, 1]", p)
		}
	}
	return nil
}

// Config describes the link.
type Config struct {
	// EffectiveBitrate is the sustained SPP payload rate in bits/s.
	// Class-2 modules on a 115.2 kBd UART sustain roughly 90 kbit/s.
	EffectiveBitrate float64
	// OverheadBytes is the per-packet protocol overhead
	// (RFCOMM/L2CAP/baseband headers amortized per ~srr packet).
	OverheadBytes int
	// DropProb is the i.i.d. packet-loss probability (0 for a clean
	// link). Ignored when Burst is set.
	DropProb float64
	// Burst, when non-nil, replaces the i.i.d. model with the
	// Gilbert–Elliott burst channel.
	Burst *BurstConfig
	// BitFlipProb is the per-byte corruption probability after CRC
	// bypass — used to verify the decoder's checksum rejects damage.
	BitFlipProb float64
	// ReorderProb is the probability a delivered frame is held back and
	// released after the next delivered frame (adjacent swap), modeling
	// out-of-order delivery across L2CAP retransmission rounds.
	ReorderProb float64
	// DupProb is the probability a delivered frame arrives twice
	// (baseband retransmission despite a received ACK).
	DupProb float64
	// JitterMax bounds the uniform per-frame latency jitter added on
	// top of the airtime (0 disables jitter accounting).
	JitterMax time.Duration
	// ClockDriftPPM is the mote crystal's frequency error in parts per
	// million (positive = the mote clock runs fast). The skew between
	// the mote's window clock and the coordinator's slot clock accrues
	// one window period at a time through EndWindow; once it exceeds a
	// full period the mote has produced an extra (or one fewer) window
	// within the coordinator's slot grid.
	ClockDriftPPM float64
	// Seed drives the loss/corruption/reorder/jitter stream.
	Seed uint64
}

// DefaultConfig returns a clean 90 kbit/s link.
func DefaultConfig() Config {
	return Config{EffectiveBitrate: 90_000, OverheadBytes: 12}
}

// Link transports marshaled packets with modeled airtime.
type Link struct {
	cfg      Config
	burst    BurstConfig
	hasBurst bool
	inBad    bool
	gen      *rng.Xoshiro

	// held is a frame stashed by the reorder model, released after the
	// next delivered frame.
	held []byte

	// Counters.
	sent, dropped, corrupted int64
	duplicated, reordered    int64
	badSlots                 int64
	bytesOnAir               int64
	airtime                  time.Duration
	jitterTotal, jitterMax   time.Duration
	driftSkew                time.Duration

	met *linkMetrics
}

// linkMetrics caches the telemetry pointers the transmit path records
// into, resolved once at Instrument time.
type linkMetrics struct {
	sent, dropped, corrupted, bytesOnAir *telemetry.Counter
	airtimeNs                            *telemetry.Counter
	frameAirtimeNs                       *telemetry.Histogram
}

// New builds a link. It returns an error for a non-positive bitrate or
// probabilities outside [0, 1].
func New(cfg Config) (*Link, error) {
	if cfg.EffectiveBitrate <= 0 {
		return nil, fmt.Errorf("link: bitrate %v must be positive", cfg.EffectiveBitrate)
	}
	for _, p := range []float64{cfg.DropProb, cfg.BitFlipProb, cfg.ReorderProb, cfg.DupProb} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("link: probabilities out of [0, 1]")
		}
	}
	if cfg.OverheadBytes < 0 {
		return nil, fmt.Errorf("link: negative overhead")
	}
	if cfg.JitterMax < 0 {
		return nil, fmt.Errorf("link: negative jitter bound")
	}
	if cfg.ClockDriftPPM < -1e6 || cfg.ClockDriftPPM > 1e6 {
		return nil, fmt.Errorf("link: clock drift %v ppm out of ±1e6", cfg.ClockDriftPPM)
	}
	l := &Link{cfg: cfg, gen: rng.New(cfg.Seed)}
	if cfg.Burst != nil {
		if err := cfg.Burst.validate(); err != nil {
			return nil, err
		}
		l.burst = cfg.Burst.normalized()
		l.hasBurst = true
	}
	return l, nil
}

// Instrument attaches session telemetry under the given metric-name
// prefix (e.g. "link" or "ctrl", so the data downlink and the control
// uplink stay distinguishable). A nil registry detaches.
func (l *Link) Instrument(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		l.met = nil
		return
	}
	if prefix == "" {
		prefix = "link"
	}
	l.met = &linkMetrics{
		sent:           reg.Counter(prefix + "_sent_total"),
		dropped:        reg.Counter(prefix + "_dropped_total"),
		corrupted:      reg.Counter(prefix + "_corrupted_total"),
		bytesOnAir:     reg.Counter(prefix + "_bytes_on_air_total"),
		airtimeNs:      reg.Counter(prefix + "_airtime_ns_total"),
		frameAirtimeNs: reg.Histogram(prefix + "_frame_airtime_ns"),
	}
}

// Airtime returns the modeled on-air duration of a payload of n bytes.
func (l *Link) Airtime(n int) time.Duration {
	bits := float64(n+l.cfg.OverheadBytes) * 8
	return time.Duration(bits / l.cfg.EffectiveBitrate * float64(time.Second))
}

// lose decides whether the current frame is lost, advancing the channel
// state for the burst model.
func (l *Link) lose() bool {
	if !l.hasBurst {
		return l.cfg.DropProb > 0 && l.gen.Bernoulli(l.cfg.DropProb)
	}
	var p float64
	if l.inBad {
		l.badSlots++
		p = l.burst.LossBad
	} else {
		p = l.burst.LossGood
	}
	lost := p > 0 && l.gen.Bernoulli(p)
	// State transition after the loss decision, so a frame sent the
	// instant the channel degrades still sees the old state.
	if l.inBad {
		if l.burst.PBadGood > 0 && l.gen.Bernoulli(l.burst.PBadGood) {
			l.inBad = false
		}
	} else if l.burst.PGoodBad > 0 && l.gen.Bernoulli(l.burst.PGoodBad) {
		l.inBad = true
	}
	return lost
}

// TransmitMulti sends one frame and returns every frame reaching the
// receiver as a consequence: none (dropped, or held back by the reorder
// model), one, or several (a duplicate, or a previously held frame
// released behind this one). The airtime is spent regardless — the
// radio transmitted.
func (l *Link) TransmitMulti(frame []byte) ([][]byte, time.Duration) {
	at := l.Airtime(len(frame))
	l.sent++
	l.bytesOnAir += int64(len(frame) + l.cfg.OverheadBytes)
	l.airtime += at
	if l.met != nil {
		l.met.sent.Inc()
		l.met.bytesOnAir.Add(int64(len(frame) + l.cfg.OverheadBytes))
		l.met.airtimeNs.Add(int64(at))
		l.met.frameAirtimeNs.Observe(int64(at))
	}
	if l.lose() {
		l.dropped++
		if l.met != nil {
			l.met.dropped.Inc()
		}
		return nil, at
	}
	out := append([]byte(nil), frame...)
	if l.cfg.BitFlipProb > 0 {
		flipped := false
		for i := range out {
			if l.gen.Bernoulli(l.cfg.BitFlipProb) {
				out[i] ^= 1 << uint(l.gen.Intn(8))
				flipped = true
			}
		}
		if flipped {
			l.corrupted++
			if l.met != nil {
				l.met.corrupted.Inc()
			}
		}
	}
	if l.cfg.JitterMax > 0 {
		j := time.Duration(l.gen.Float64() * float64(l.cfg.JitterMax))
		l.jitterTotal += j
		if j > l.jitterMax {
			l.jitterMax = j
		}
	}
	if l.cfg.ReorderProb > 0 && l.held == nil && l.gen.Bernoulli(l.cfg.ReorderProb) {
		l.held = out
		return nil, at
	}
	frames := [][]byte{out}
	if l.cfg.DupProb > 0 && l.gen.Bernoulli(l.cfg.DupProb) {
		l.duplicated++
		frames = append(frames, append([]byte(nil), out...))
	}
	if l.held != nil {
		l.reordered++
		frames = append(frames, l.held)
		l.held = nil
	}
	return frames, at
}

// EndWindow advances the drift model by one nominal window period and
// returns the cumulative mote-versus-coordinator clock skew. Drivers
// call it once per window slot; when the magnitude of the returned skew
// crosses a full period, the mote's window production has slipped one
// slot against the coordinator's grid (the driver injects the extra or
// missing window and discounts a period from its own threshold).
func (l *Link) EndWindow(nominal time.Duration) time.Duration {
	l.driftSkew += time.Duration(float64(nominal) * l.cfg.ClockDriftPPM / 1e6)
	return l.driftSkew
}

// Flush releases any frame still held by the reorder model (end of
// session: the delayed frame eventually arrives).
func (l *Link) Flush() [][]byte {
	if l.held == nil {
		return nil
	}
	out := [][]byte{l.held}
	l.held = nil
	l.reordered++
	return out
}

// TransmitPacketMulti marshals and transmits a pipeline packet,
// returning every parsed packet reaching the receive side. Frames the
// checksum rejects are discarded, equivalent to a drop at the
// application layer.
func (l *Link) TransmitPacketMulti(p *core.Packet) ([]*core.Packet, time.Duration, error) {
	frame, err := p.Marshal()
	if err != nil {
		return nil, 0, err
	}
	frames, at := l.TransmitMulti(frame)
	return parseFrames(frames), at, nil
}

func parseFrames(frames [][]byte) []*core.Packet {
	var pkts []*core.Packet
	for _, f := range frames {
		pkt, _, err := core.UnmarshalPacket(f)
		if err != nil {
			continue
		}
		pkts = append(pkts, pkt)
	}
	return pkts
}

// TransmitPacket marshals and transmits a pipeline packet, returning the
// parsed packet on the receive side (nil if dropped or rejected by the
// checksum) together with the airtime.
func (l *Link) TransmitPacket(p *core.Packet) (*core.Packet, time.Duration, error) {
	pkts, at, err := l.TransmitPacketMulti(p)
	if err != nil || len(pkts) == 0 {
		return nil, at, err
	}
	return pkts[0], at, nil
}

// Stats reports the link counters.
type Stats struct {
	// Sent counts transmission attempts; Dropped the frames lost by the
	// channel; Corrupted the delivered frames that took at least one bit
	// flip (the packet checksum rejects these downstream).
	Sent, Dropped, Corrupted int64
	// Duplicated and Reordered count injected duplicate deliveries and
	// held-back frames released out of order.
	Duplicated, Reordered int64
	// BadSlots counts frames sent while the burst channel was in its
	// bad state (0 for the i.i.d. model).
	BadSlots   int64
	BytesOnAir int64
	Airtime    time.Duration
	// JitterTotal and JitterMax summarize the injected latency jitter.
	JitterTotal, JitterMax time.Duration
	// DriftSkew is the accumulated mote-versus-coordinator clock skew
	// under ClockDriftPPM.
	DriftSkew time.Duration
}

// Stats returns a snapshot of the counters.
func (l *Link) Stats() Stats {
	return Stats{
		Sent: l.sent, Dropped: l.dropped, Corrupted: l.corrupted,
		Duplicated: l.duplicated, Reordered: l.reordered, BadSlots: l.badSlots,
		BytesOnAir: l.bytesOnAir, Airtime: l.airtime,
		JitterTotal: l.jitterTotal, JitterMax: l.jitterMax,
		DriftSkew: l.driftSkew,
	}
}
