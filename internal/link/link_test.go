package link

import (
	"math"
	"testing"
	"time"

	"csecg/internal/core"
)

func TestAirtime(t *testing.T) {
	l, err := New(Config{EffectiveBitrate: 100_000, OverheadBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 90 payload + 10 overhead = 800 bits at 100 kbit/s = 8 ms.
	if got := l.Airtime(90); got != 8*time.Millisecond {
		t.Errorf("Airtime = %v, want 8ms", got)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{EffectiveBitrate: 0},
		{EffectiveBitrate: 1000, DropProb: -0.1},
		{EffectiveBitrate: 1000, DropProb: 1.5},
		{EffectiveBitrate: 1000, BitFlipProb: 2},
		{EffectiveBitrate: 1000, OverheadBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// Transmit sends one frame over a channel without reordering or
// duplication: it returns the delivered frame (nil if the frame was
// dropped) and the airtime consumed.
func (l *Link) Transmit(frame []byte) ([]byte, time.Duration) {
	frames, at := l.TransmitMulti(frame)
	if len(frames) == 0 {
		return nil, at
	}
	return frames[0], at
}

func TestCleanLinkDeliversIntact(t *testing.T) {
	l, _ := New(DefaultConfig())
	frame := []byte{1, 2, 3, 4, 5}
	rx, at := l.Transmit(frame)
	if rx == nil {
		t.Fatal("clean link dropped a frame")
	}
	if at <= 0 {
		t.Error("zero airtime")
	}
	for i := range frame {
		if rx[i] != frame[i] {
			t.Fatal("clean link corrupted a frame")
		}
	}
	// The returned slice must be a copy, not an alias.
	rx[0] = 99
	if frame[0] == 99 {
		t.Error("Transmit aliases the input frame")
	}
}

func TestDropRateApproximate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropProb = 0.3
	cfg.Seed = 7
	l, _ := New(cfg)
	frame := make([]byte, 50)
	const n = 5000
	delivered := 0
	for i := 0; i < n; i++ {
		if rx, _ := l.Transmit(frame); rx != nil {
			delivered++
		}
	}
	got := 1 - float64(delivered)/n
	if math.Abs(got-0.3) > 0.03 {
		t.Errorf("observed drop rate %v, want ≈0.3", got)
	}
	st := l.Stats()
	if st.Sent != n || st.Dropped != int64(n-delivered) {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if st.Airtime <= 0 || st.BytesOnAir != int64(n*(50+cfg.OverheadBytes)) {
		t.Errorf("airtime accounting wrong: %+v", st)
	}
}

func TestCorruptionIsDetectedByPacketChecksum(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitFlipProb = 0.0005 // ≈23% of 526-byte frames take at least one flip
	cfg.Seed = 3
	l, _ := New(cfg)
	pkt := &core.Packet{Seq: 1, Kind: core.KindKey, Payload: make([]byte, 512)}
	const n = 400
	var delivered, rejected int
	for i := 0; i < n; i++ {
		rx, _, err := l.TransmitPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if rx != nil {
			delivered++
			// Anything delivered must be intact.
			if rx.Seq != 1 || len(rx.Payload) != 512 {
				t.Fatal("corrupted packet slipped through the checksum")
			}
		} else {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("2% per-byte flips never caused a rejection over 400 packets")
	}
	if delivered == 0 {
		t.Error("every packet rejected; corruption model too aggressive")
	}
	if st := l.Stats(); st.Corrupted == 0 {
		t.Error("corruption counter not incremented")
	}
}

// TestGilbertElliottStationaryLoss checks the burst channel's long-run
// loss rate against the analytic π_bad = p/(p+r) at fixed seeds.
func TestGilbertElliottStationaryLoss(t *testing.T) {
	cases := []struct {
		p, r float64
		seed uint64
	}{
		{0.05, 0.50, 11},
		{0.10, 0.30, 12},
		{0.02, 0.20, 13},
		{0.50, 0.50, 14},
		{0.01, 0.04, 15},
	}
	frame := make([]byte, 50)
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Burst = &BurstConfig{PGoodBad: tc.p, PBadGood: tc.r}
		cfg.Seed = tc.seed
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50_000
		for i := 0; i < n; i++ {
			l.TransmitMulti(frame)
		}
		st := l.Stats()
		got := float64(st.Dropped) / n
		want := cfg.Burst.StationaryLoss()
		if wantAnalytic := tc.p / (tc.p + tc.r); math.Abs(want-wantAnalytic) > 1e-12 {
			t.Errorf("p=%v r=%v: StationaryLoss=%v, want %v", tc.p, tc.r, want, wantAnalytic)
		}
		tol := 0.15 * want // 15% relative at 50k frames
		if tol < 0.004 {
			tol = 0.004
		}
		if math.Abs(got-want) > tol {
			t.Errorf("p=%v r=%v: observed loss %v, want ≈%v", tc.p, tc.r, got, want)
		}
		if st.BadSlots == 0 {
			t.Errorf("p=%v r=%v: bad-state occupancy never counted", tc.p, tc.r)
		}
	}
}

// TestGilbertElliottBurstiness checks that losses cluster: the mean loss
// burst length approaches 1/r, far above the i.i.d. value at the same
// stationary rate.
func TestGilbertElliottBurstiness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Burst = &BurstConfig{PGoodBad: 0.02, PBadGood: 0.25}
	cfg.Seed = 77
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 50)
	var bursts, lostTotal, run int
	const n = 60_000
	for i := 0; i < n; i++ {
		rx, _ := l.TransmitMulti(frame)
		if len(rx) == 0 {
			if run == 0 {
				bursts++
			}
			run++
			lostTotal++
		} else {
			run = 0
		}
	}
	if bursts == 0 {
		t.Fatal("no loss bursts observed")
	}
	mean := float64(lostTotal) / float64(bursts)
	want := 1 / 0.25
	if math.Abs(mean-want) > 0.2*want {
		t.Errorf("mean burst length %.2f, want ≈%.1f", mean, want)
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Burst = &BurstConfig{PGoodBad: 1.5}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range burst probability accepted")
	}
}

// TestReorderSwapsAdjacent drives the reorder model at probability 1:
// frames must arrive as adjacent swaps with nothing lost.
func TestReorderSwapsAdjacent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReorderProb = 1
	cfg.Seed = 5
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := byte(0); i < 8; i++ {
		frames, _ := l.TransmitMulti([]byte{i})
		for _, f := range frames {
			got = append(got, f[0])
		}
	}
	for _, f := range l.Flush() {
		got = append(got, f[0])
	}
	want := []byte{1, 0, 3, 2, 5, 4, 7, 6}
	if len(got) != len(want) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
	if st := l.Stats(); st.Reordered != 4 {
		t.Errorf("Reordered = %d, want 4", st.Reordered)
	}
}

// TestDuplicationDeliversTwice drives DupProb=1.
func TestDuplicationDeliversTwice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProb = 1
	cfg.Seed = 5
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := l.TransmitMulti([]byte{42})
	if len(frames) != 2 || frames[0][0] != 42 || frames[1][0] != 42 {
		t.Fatalf("dup delivery = %v frames", len(frames))
	}
	if st := l.Stats(); st.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", st.Duplicated)
	}
}

// TestJitterAccounting checks the jitter counters move and stay bounded.
func TestJitterAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterMax = 40 * time.Millisecond
	cfg.Seed = 8
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		l.TransmitMulti([]byte{1, 2, 3})
	}
	st := l.Stats()
	if st.JitterTotal <= 0 {
		t.Error("jitter never accumulated")
	}
	if st.JitterMax <= 0 || st.JitterMax >= cfg.JitterMax {
		t.Errorf("max jitter %v outside (0, %v)", st.JitterMax, cfg.JitterMax)
	}
}

func TestTransmitPacketRoundTrip(t *testing.T) {
	l, _ := New(DefaultConfig())
	pkt := &core.Packet{Seq: 9, Kind: core.KindDelta, NumSymbols: 256, Payload: []byte{1, 2, 3}}
	rx, at, err := l.TransmitPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if rx == nil {
		t.Fatal("clean link dropped packet")
	}
	if rx.Seq != 9 || rx.Kind != core.KindDelta || rx.NumSymbols != 256 {
		t.Errorf("packet fields mangled: %+v", rx)
	}
	wantAt := l.Airtime(pkt.WireSize())
	if at != wantAt {
		t.Errorf("airtime %v, want %v", at, wantAt)
	}
}

func TestClockDriftAccrues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClockDriftPPM = 50 // typical watch-crystal tolerance
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const period = 2 * time.Second
	var skew time.Duration
	for i := 0; i < 100; i++ {
		skew = l.EndWindow(period)
	}
	// 50 ppm over 100 × 2 s windows = 10 ms of skew.
	if want := 10 * time.Millisecond; skew != want {
		t.Errorf("skew after 100 windows = %v, want %v", skew, want)
	}
	if got := l.Stats().DriftSkew; got != skew {
		t.Errorf("Stats().DriftSkew = %v, want %v", got, skew)
	}
}

func TestClockDriftNegativeAndInert(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClockDriftPPM = -100 // slow mote clock
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if skew := l.EndWindow(time.Second); skew != -100*time.Microsecond {
		t.Errorf("negative drift skew = %v, want -100µs", skew)
	}
	inert, _ := New(DefaultConfig())
	if skew := inert.EndWindow(time.Second); skew != 0 {
		t.Errorf("zero-ppm link accrued skew %v", skew)
	}
	bad := DefaultConfig()
	bad.ClockDriftPPM = 2e6
	if _, err := New(bad); err == nil {
		t.Error("drift beyond ±1e6 ppm accepted")
	}
}
