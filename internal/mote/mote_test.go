package mote

import (
	"testing"
	"time"

	"csecg/internal/core"
	"csecg/internal/ecg"
)

func testWindow(t testing.TB) []int16 {
	t.Helper()
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return samples[:core.WindowSize]
}

func TestMeasurementLatencyMatchesPaper(t *testing.T) {
	m, err := New(core.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: a 2-second vector is CS-sampled in 82 ms at d=12.
	lat := m.MeasurementLatency()
	if lat < 70*time.Millisecond || lat > 95*time.Millisecond {
		t.Errorf("measurement latency %v, want ≈82 ms", lat)
	}
}

func TestCPUUsageUnderFivePercent(t *testing.T) {
	m, err := New(core.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	win := testWindow(t)
	for i := 0; i < 5; i++ {
		rep, err := m.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.RealTime {
			t.Fatalf("window %d not real-time: %v", i, rep.EncodeTime)
		}
	}
	if u := m.AverageCPUUsage(); u >= 0.05 {
		t.Errorf("average CPU usage %.1f%%, paper reports < 5%%", u*100)
	} else if u <= 0.01 {
		t.Errorf("average CPU usage %.1f%% implausibly low for the calibration", u*100)
	}
}

func TestLatencyScalesWithColumnWeight(t *testing.T) {
	lat := func(d int) time.Duration {
		m, err := New(core.Params{Seed: 1, D: d})
		if err != nil {
			t.Fatal(err)
		}
		return m.MeasurementLatency()
	}
	l6, l12, l24 := lat(6), lat(12), lat(24)
	if !(l6 < l12 && l12 < l24) {
		t.Errorf("latency not monotone in d: %v, %v, %v", l6, l12, l24)
	}
	// Linear in d: doubling d doubles the measurement work.
	if ratio := float64(l24) / float64(l12); ratio < 1.9 || ratio > 2.1 {
		t.Errorf("latency ratio d=24/d=12 = %v, want ≈2", ratio)
	}
}

func TestReportBreakdownConsistent(t *testing.T) {
	m, _ := New(core.Params{Seed: 3})
	win := testWindow(t)
	// First window is a key frame: no diff/entropy cycles.
	rep, err := m.EncodeWindow(win)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packet.Kind != core.KindKey {
		t.Fatal("first packet not key")
	}
	if rep.DiffCycles != 0 || rep.EntropyCycles != 0 {
		t.Error("key frame charged diff/entropy cycles")
	}
	sum := rep.MeasureCycles + rep.ShiftCycles + rep.DiffCycles + rep.EntropyCycles + rep.FramingCycles
	if sum != rep.TotalCycles {
		t.Errorf("breakdown sum %d != total %d", sum, rep.TotalCycles)
	}
	// Second window is a delta frame: diff and entropy show up.
	rep2, err := m.EncodeWindow(win)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Packet.Kind != core.KindDelta {
		t.Fatal("second packet not delta")
	}
	if rep2.DiffCycles == 0 || rep2.EntropyCycles == 0 {
		t.Error("delta frame missing diff/entropy cycles")
	}
}

func TestMemoryFootprintMatchesPaper(t *testing.T) {
	m, _ := New(core.Params{Seed: 1})
	mem := m.MemoryFootprint()
	// Paper: 6.5 kB RAM, 7.5 kB flash of which 1.5 kB codebook.
	ram := mem.RAMTotal()
	if ram < 6000 || ram > 7200 {
		t.Errorf("RAM footprint %d B, want ≈6.5 kB", ram)
	}
	flash := mem.FlashTotal()
	if flash < 7000 || flash > 8200 {
		t.Errorf("flash footprint %d B, want ≈7.5 kB", flash)
	}
	if cb := mem.CodebookFlash; cb < 1500 || cb > 1600 {
		t.Errorf("codebook flash %d B, want ≈1.5 kB", cb)
	}
	if err := m.CheckFits(); err != nil {
		t.Errorf("default build does not fit the MSP430: %v", err)
	}
}

func TestCheckFitsRejectsOversize(t *testing.T) {
	// A very long window with many measurements blows the RAM budget.
	m, err := New(core.Params{N: 8192, M: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFits(); err == nil {
		t.Error("oversized configuration passed CheckFits")
	}
}

func TestAverageCPUUsageEmpty(t *testing.T) {
	m, _ := New(core.Params{Seed: 1})
	if u := m.AverageCPUUsage(); u != 0 {
		t.Errorf("empty model CPU usage %v", u)
	}
}

func BenchmarkInstrumentedEncode(b *testing.B) {
	m, _ := New(core.Params{Seed: 1})
	win := testWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EncodeWindow(win); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRetransmitRing(t *testing.T) {
	m, err := New(core.Params{Seed: 9, KeyFrameInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Retransmit(0); ok {
		t.Error("disabled ring served a packet")
	}
	if err := m.EnableRetransmitBuffer(4); err != nil {
		t.Fatal(err)
	}
	if len(m.ring) != 4 {
		t.Errorf("ring size %d, want 4", len(m.ring))
	}
	mem := m.MemoryFootprint()
	if mem.RetransmitRing != 4*RetransmitSlotBytes {
		t.Errorf("ring RAM %d, want %d", mem.RetransmitRing, 4*RetransmitSlotBytes)
	}
	if err := m.CheckFits(); err != nil {
		t.Errorf("4-slot ring should fit the RAM budget: %v", err)
	}

	win := make([]int16, m.Params().N)
	for i := range win {
		win[i] = 1024
	}
	var pkts []*core.Packet
	for i := 0; i < 6; i++ {
		r, err := m.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, r.Packet)
	}
	// The last 4 packets are retransmittable, older ones aged out.
	for seq := uint32(2); seq < 6; seq++ {
		p, ok := m.Retransmit(seq)
		if !ok {
			t.Fatalf("seq %d missing from a 4-slot ring after 6 windows", seq)
		}
		if p.Seq != seq || p.Kind != pkts[seq].Kind {
			t.Errorf("ring returned seq %d kind %v for request %d", p.Seq, p.Kind, seq)
		}
	}
	for _, seq := range []uint32{0, 1, 6, 99} {
		if _, ok := m.Retransmit(seq); ok {
			t.Errorf("ring served aged-out/unsent seq %d", seq)
		}
	}
	if m.Retransmits() != 4 {
		t.Errorf("retransmit counter %d, want 4", m.Retransmits())
	}
}

func TestRetransmitRingRAMBudget(t *testing.T) {
	m, err := New(core.Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// 8 slots would cost 5 kB on top of the 6.5 kB baseline: over budget.
	if err := m.EnableRetransmitBuffer(core.MaxNackRange); err == nil {
		t.Error("over-budget ring accepted")
	}
	if len(m.ring) != 0 {
		t.Error("failed enable left the ring allocated")
	}
	if err := m.EnableRetransmitBuffer(-1); err == nil {
		t.Error("negative ring accepted")
	}
	if err := m.EnableRetransmitBuffer(DefaultRetransmitRing); err != nil {
		t.Errorf("default ring rejected: %v", err)
	}
	if err := m.EnableRetransmitBuffer(0); err != nil || len(m.ring) != 0 {
		t.Error("ring not disabled by k=0")
	}
}

func TestRequestKeyFrame(t *testing.T) {
	m, err := New(core.Params{Seed: 9, KeyFrameInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, m.Params().N)
	if r, _ := m.EncodeWindow(win); r.Packet.Kind != core.KindKey {
		t.Fatal("first packet not key")
	}
	if r, _ := m.EncodeWindow(win); r.Packet.Kind != core.KindDelta {
		t.Fatal("second packet not delta")
	}
	m.RequestKeyFrame()
	if r, _ := m.EncodeWindow(win); r.Packet.Kind != core.KindKey {
		t.Error("key request not honored")
	}
}

func TestRebootRestartsSequenceAndClearsRing(t *testing.T) {
	m, err := New(core.Params{Seed: 1, KeyFrameInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableRetransmitBuffer(4); err != nil {
		t.Fatal(err)
	}
	win := testWindow(t)
	var last *core.Packet
	for i := 0; i < 5; i++ {
		rep, err := m.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		last = rep.Packet
	}
	if last.Seq != 4 {
		t.Fatalf("pre-reboot seq = %d, want 4", last.Seq)
	}
	if _, ok := m.Retransmit(4); !ok {
		t.Fatal("ring empty before reboot")
	}
	m.Reboot()
	for seq := uint32(1); seq <= 4; seq++ {
		if _, ok := m.Retransmit(seq); ok {
			t.Fatalf("seq %d survived the reboot in the retransmit ring", seq)
		}
	}
	rep, err := m.EncodeWindow(win)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packet.Seq != 0 || rep.Packet.Kind != core.KindKey {
		t.Fatalf("first post-reboot window seq=%d kind=%v, want a seq-0 key frame",
			rep.Packet.Seq, rep.Packet.Kind)
	}
}
