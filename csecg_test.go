package csecg

import (
	"testing"
	"time"

	"csecg/internal/monitor"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	params := Params{Seed: 42, M: MForCR(50, WindowSize)}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder32(params)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o+WindowSize <= len(samples); o += WindowSize {
		win := samples[o : o+WindowSize]
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := MarshalPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		rx, n, err := UnmarshalPacket(blob)
		if err != nil || n != len(blob) {
			t.Fatalf("unmarshal: %v (n=%d)", err, n)
		}
		out, err := dec.DecodePacket(rx)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Samples) != WindowSize {
			t.Fatalf("reconstruction length %d", len(out.Samples))
		}
	}
}

func TestDatabaseSurface(t *testing.T) {
	if rec, err := RecordByID("100"); err != nil || rec.ID != "100" {
		t.Errorf("RecordByID(100) = %v, %v", rec.ID, err)
	}
	if _, err := RecordByID("nope"); err == nil {
		t.Error("bad ID accepted")
	}
}

func TestMetricsSurface(t *testing.T) {
	if CR(100, 50) != 50 {
		t.Error("CR re-export broken")
	}
	if MForCR(50, 512) != 256 {
		t.Error("MForCR re-export broken")
	}
	if got := SNR(10); got < 19.999 || got > 20.001 {
		t.Errorf("SNR re-export: %v", got)
	}
	if _, err := PRD([]float64{1, 2}, []float64{1, 2}); err != nil {
		t.Error("PRD re-export broken")
	}
	if _, err := PRDN([]float64{1, 2}, []float64{1, 2}); err != nil {
		t.Error("PRDN re-export broken")
	}
}

func TestRunStreamFullSession(t *testing.T) {
	rep, err := RunStream(StreamConfig{
		RecordID: "100",
		Seconds:  30,
		Params:   Params{Seed: 9, M: MForCR(50, WindowSize)},
		Mode:     ModeNEON,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 15 {
		t.Errorf("windows %d, want 15", rep.Windows)
	}
	if rep.Lost != 0 {
		t.Errorf("clean link lost %d packets", rep.Lost)
	}
	if rep.MeanPRDN <= 0 || rep.MeanPRDN > 15 {
		t.Errorf("mean PRDN %v out of expected range", rep.MeanPRDN)
	}
	if rep.WireCR < 55 {
		t.Errorf("wire CR %v, want > 55", rep.WireCR)
	}
	if rep.MoteCPU <= 0 || rep.MoteCPU >= 0.05 {
		t.Errorf("mote CPU %v, want (0, 5%%)", rep.MoteCPU)
	}
	if rep.CoordinatorCPU <= 0.02 || rep.CoordinatorCPU >= 0.5 {
		t.Errorf("coordinator CPU %v, want tens of percent", rep.CoordinatorCPU)
	}
	if rep.Extension < 0.05 || rep.Extension > 0.25 {
		t.Errorf("lifetime extension %v, want ≈0.13", rep.Extension)
	}
	if rep.LifetimeCS <= rep.LifetimeRaw {
		t.Error("CS lifetime not longer than raw streaming")
	}
	if rep.MeanDecodeTime <= 0 || rep.MeanDecodeTime > time.Second {
		t.Errorf("mean decode time %v outside (0, 1 s]", rep.MeanDecodeTime)
	}
	if rep.Display == nil || rep.Display.Underruns != 0 {
		t.Errorf("display sim unhappy: %+v", rep.Display)
	}
}

func TestRunStreamLossyLink(t *testing.T) {
	cfg := StreamConfig{
		RecordID: "205",
		Seconds:  120,
		Params:   Params{Seed: 3, KeyFrameInterval: 4},
		Mode:     ModeVFP,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.DropProb = 0.25
	cfg.Link.Seed = 5
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost == 0 {
		t.Error("lossy link lost nothing over 60 packets at 25% drop")
	}
	if rep.Windows != 60 {
		t.Errorf("windows %d, want 60", rep.Windows)
	}
}

// TestNackRecoveryBeatsKeyFrameWait is the acceptance bar for the
// fault-tolerant transport: on a bursty channel with ≥5% mean loss and
// sparse scheduled key frames, NACK-driven resync must recover at least
// twice the decoded windows of the wait-for-key-frame baseline.
func TestNackRecoveryBeatsKeyFrameWait(t *testing.T) {
	burst := &BurstConfig{PGoodBad: 0.06, PBadGood: 0.5}
	if sl := burst.StationaryLoss(); sl < 0.05 {
		t.Fatalf("stationary loss %.3f below the 5%% requirement", sl)
	}
	base := StreamConfig{
		RecordID: "119",
		Seconds:  60,
		Params:   Params{Seed: 11, M: MForCR(50, WindowSize)}, // KeyFrameInterval default 64
		Mode:     ModeVFP,
	}
	base.Link = DefaultLinkConfig()
	base.Link.Burst = burst
	base.Link.Seed = 0xB02
	baseline, err := RunStream(base)
	if err != nil {
		t.Fatal(err)
	}
	nackCfg := base
	nackCfg.Transport = TransportConfig{NACK: true}
	obs := &slotCounter{}
	nackCfg.Observer = obs
	nacked, err := RunStream(nackCfg)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Lost == 0 || nacked.Lost == 0 {
		t.Fatalf("burst channel dropped nothing (baseline %d, nack %d)", baseline.Lost, nacked.Lost)
	}
	if baseline.Decoded >= baseline.Windows {
		t.Fatalf("baseline decoded everything (%d/%d); channel not stressful enough",
			baseline.Decoded, baseline.Windows)
	}
	if nacked.Decoded < 2*baseline.Decoded {
		t.Errorf("NACK decoded %d of %d windows, baseline %d — want ≥ 2× recovery",
			nacked.Decoded, nacked.Windows, baseline.Decoded)
	}
	if nacked.Transport.NacksSent == 0 || nacked.Retransmits == 0 {
		t.Errorf("no NACK traffic recorded: %+v", nacked.Transport)
	}
	if nacked.RetransmitAirtime <= 0 {
		t.Error("retransmissions consumed no airtime")
	}
	if nacked.AirtimePerWindow <= baseline.AirtimePerWindow {
		t.Error("retransmit airtime not charged to the energy model")
	}
	// One bad-window count: the receiver's, which the report carries and
	// the per-window feed agrees with.
	if nacked.BadWindows != nacked.Transport.BadWindows || nacked.BadWindows != obs.bad {
		t.Errorf("bad windows: report %d, receiver %d, observed %d",
			nacked.BadWindows, nacked.Transport.BadWindows, obs.bad)
	}
	if baseline.Transport.Gaps == 0 || baseline.Transport.LongestOutage == 0 {
		t.Errorf("baseline gap accounting empty: %+v", baseline.Transport)
	}
}

func TestRunStreamErrors(t *testing.T) {
	if _, err := RunStream(StreamConfig{RecordID: "999"}); err == nil {
		t.Error("unknown record accepted")
	}
	if _, err := RunStream(StreamConfig{Seconds: 1}); err == nil {
		t.Error("sub-window session accepted")
	}
}

// slotCounter remembers the last per-slot snapshot of a session and
// counts the windows reported bad.
type slotCounter struct {
	last monitor.SlotStatus
	bad  int
}

func (c *slotCounter) OnWindow(w monitor.WindowStatus) {
	if w.Bad {
		c.bad++
	}
}
func (c *slotCounter) OnSlot(s monitor.SlotStatus) { c.last = s }

// TestRunStreamClockDriftSlipsWindows: a mote clock 3 % fast gains a
// full 2 s window after 34 slots, so one slot carries two windows, the
// 40-window record runs out a slot early, and the report carries the
// accrued skew.
func TestRunStreamClockDriftSlipsWindows(t *testing.T) {
	cfg := StreamConfig{Seconds: 80, Params: Params{Seed: 1}, Link: DefaultLinkConfig()}
	cfg.Link.ClockDriftPPM = 30_000
	slots := &slotCounter{}
	cfg.Observer = slots
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 40 || rep.Decoded != rep.Windows {
		t.Fatalf("windows %d decoded %d, want all 40 decoded", rep.Windows, rep.Decoded)
	}
	if slots.last.Slot != rep.Windows-1 {
		t.Errorf("session took %d slots for %d windows, want one slipped window", slots.last.Slot, rep.Windows)
	}
	if want := 39 * 60 * time.Millisecond; rep.LinkStats.DriftSkew != want {
		t.Errorf("drift skew %v, want %v", rep.LinkStats.DriftSkew, want)
	}
}

// TestRunStreamZeroBitrateKeepsLinkFaults: a Link that sets only its
// faults takes the default bitrate and overhead and keeps the faults,
// so the session loses frames at the same drop rate as one configured
// from DefaultLinkConfig.
func TestRunStreamZeroBitrateKeepsLinkFaults(t *testing.T) {
	full := DefaultLinkConfig()
	full.DropProb = 0.3
	var dropped [2]int64
	for i, l := range []LinkConfig{{DropProb: 0.3}, full} {
		rep, err := RunStream(StreamConfig{Seconds: 40, Params: Params{Seed: 1}, Link: l})
		if err != nil {
			t.Fatal(err)
		}
		dropped[i] = rep.LinkStats.Dropped
	}
	if dropped[0] == 0 || dropped[0] != dropped[1] {
		t.Fatalf("dropped %d frames with a zero bitrate, %d with the default one; want equal and nonzero", dropped[0], dropped[1])
	}
}

func TestMoteSurface(t *testing.T) {
	m, err := NewMote(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lat := m.MeasurementLatency(); lat <= 0 {
		t.Error("zero measurement latency")
	}
	d, err := NewRealTimeDecoder(Params{Seed: 1}, ModeVFP)
	if err != nil {
		t.Fatal(err)
	}
	if d.IterationBudget() <= 0 {
		t.Error("zero iteration budget")
	}
}

func TestSoakLongLossySession(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// 10 minutes of a mixed-arrhythmia record over a 2%-lossy link: the
	// decoder's integer measurement state must not drift (quality stays
	// flat), losses must stay recoverable, and the viewer must never
	// starve outside loss gaps.
	cfg := StreamConfig{
		RecordID: "201",
		Seconds:  600,
		Params:   Params{Seed: 0x50AC, M: MForCR(50, WindowSize), KeyFrameInterval: 16},
		Mode:     ModeNEON,
	}
	cfg.Link = DefaultLinkConfig()
	cfg.Link.DropProb = 0.02
	cfg.Link.Seed = 99
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 300 {
		t.Fatalf("windows %d, want 300", rep.Windows)
	}
	if rep.Lost == 0 || rep.Lost > 30 {
		t.Errorf("lost %d packets, expected ≈6 at 2%%", rep.Lost)
	}
	if rep.MeanPRDN <= 0 || rep.MeanPRDN > 15 {
		t.Errorf("mean PRDN %.2f drifted out of range", rep.MeanPRDN)
	}
	if rep.WorstPRDN > 60 {
		t.Errorf("worst PRDN %.2f indicates state corruption", rep.WorstPRDN)
	}
	if rep.MoteCPU >= 0.05 {
		t.Errorf("mote CPU %.3f above the 5%% budget over the long run", rep.MoteCPU)
	}
}
