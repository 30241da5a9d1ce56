package coordinator

import (
	"strings"
	"testing"

	"csecg/internal/core"
	"csecg/internal/ecg"
	"csecg/internal/metrics"
	"csecg/internal/solver"
	"csecg/internal/telemetry"
)

// faultDecoder wraps a Decoder and panics on configured sequence
// numbers — the containment path's test double.
type faultDecoder struct {
	inner   Decoder
	panicOn map[uint32]bool
}

func (f *faultDecoder) Decode(pkt *core.Packet) (*Result, error) {
	if f.panicOn[pkt.Seq] {
		panic("injected decode fault")
	}
	return f.inner.Decode(pkt)
}

func (f *faultDecoder) Params() core.Params { return f.inner.Params() }

// survivalRig is transportRig with the decoder wrapped in a panic
// injector.
func survivalRig(t *testing.T, keyInterval int, cfg TransportConfig, panicOn ...uint32) (*core.Encoder, *Receiver) {
	t.Helper()
	params := core.Params{Seed: 0x31, M: 64, N: 128, WaveletLevels: 3, KeyFrameInterval: keyInterval}
	enc, err := core.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewRealTimeDecoder(params, VFP)
	if err != nil {
		t.Fatal(err)
	}
	tun, err := dec.SolverTuning()
	if err != nil {
		t.Fatal(err)
	}
	tun.SolverOptions.MaxIter = 1
	fd := &faultDecoder{inner: dec, panicOn: map[uint32]bool{}}
	for _, s := range panicOn {
		fd.panicOn[s] = true
	}
	return enc, NewReceiver(fd, cfg)
}

// TestDecodePanicContained pins the survival contract: a panicking
// window is recorded as a decode failure and the session continues —
// later windows decode and health returns to decoding.
func TestDecodePanicContained(t *testing.T) {
	enc, rx := survivalRig(t, 4, TransportConfig{}, 2)
	reg := telemetry.NewRegistry()
	rx.Instrument(reg)
	pkts := encodeN(t, enc, 8)
	decoded := 0
	for _, p := range pkts {
		decoded += len(push(t, rx, p))
		rx.EndSlot()
	}
	decoded += len(rx.Close())
	st := rx.Stats()
	if st.DecodePanics != 1 {
		t.Fatalf("DecodePanics = %d, want 1", st.DecodePanics)
	}
	if st.DecodeFailures < 1 {
		t.Fatalf("panic not recorded as a decode failure: %+v", st)
	}
	// Window 2 is lost (and window 3, a delta desynchronized by the
	// decoder's advanced state, may be too); the stream recovers at the
	// next key frame.
	if decoded < 6 {
		t.Fatalf("decoded %d of 8 windows after one injected panic", decoded)
	}
	if h := rx.Health(); h != HealthDecoding {
		t.Fatalf("health %v after recovery, want decoding", h)
	}
	if got := reg.Counter("transport_decode_panics_total").Load(); got != 1 {
		t.Fatalf("transport_decode_panics_total = %d, want 1", got)
	}
}

// TestIngestFrameRejectsCorruption pins the acceptance criterion: a
// deliberately corrupted frame is rejected by the CRC at ingest and
// counted in telemetry rather than reaching the decoder.
func TestIngestFrameRejectsCorruption(t *testing.T) {
	enc, rx := survivalRig(t, 4, TransportConfig{})
	reg := telemetry.NewRegistry()
	rx.Instrument(reg)
	pkts := encodeN(t, enc, 2)
	blob, err := pkts[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), blob...)
	blob[len(blob)/2] ^= 0x40
	if out, err := rx.IngestFrame(blob); err != nil || len(out) != 0 {
		t.Fatalf("corrupt frame: out=%v err=%v, want silent drop", out, err)
	}
	st := rx.Stats()
	if st.Rejected != 1 || st.Received != 0 {
		t.Fatalf("corrupt frame not rejected at ingest: %+v", st)
	}
	if got := reg.Counter("transport_crc_rejected_total").Load(); got != 1 {
		t.Fatalf("transport_crc_rejected_total = %d, want 1", got)
	}
	// The pristine image of the same packet still decodes.
	out, err := rx.IngestFrame(good)
	if err != nil || len(out) != 1 {
		t.Fatalf("pristine frame: out=%v err=%v", out, err)
	}
}

// TestAdmissionQueueShedsOldestNonKey drives a burst through a slow
// decoder: the queue must stay bounded, shed the oldest non-key windows
// first, and keep the key frame so the stream stays decodable.
func TestAdmissionQueueShedsOldestNonKey(t *testing.T) {
	enc, rx := survivalRig(t, 16, TransportConfig{QueueLimit: 4, DecodesPerSlot: 1, ReorderWindow: 64})
	spans := telemetry.NewCausalTracer(telemetry.CausalConfig{Label: "shed", RetainAll: true})
	rx.SetTracer(spans)
	pkts := encodeN(t, enc, 12)
	// Burst: all 12 windows arrive within one slot while the decoder can
	// retire only one per slot.
	for _, p := range pkts {
		spans.Begin(p.Seq).Root(0)
		push(t, rx, p)
	}
	st := rx.Stats()
	if st.QueuePeak > 4 {
		t.Fatalf("queue peak %d exceeds limit 4", st.QueuePeak)
	}
	if st.Shed == 0 {
		t.Fatal("burst over a full queue shed nothing")
	}
	// The receiver finishes each shed window's partial trace as dropped.
	shed := 0
	for _, w := range spans.Retained() {
		if w.Flags&telemetry.FlagShed != 0 {
			shed++
		}
	}
	if shed != st.Shed {
		t.Fatalf("%d traces flagged shed, receiver shed %d windows", shed, st.Shed)
	}
	decoded := 0
	for i := 0; i < 32; i++ {
		_, late := rx.EndSlot()
		decoded += len(late)
	}
	decoded += len(rx.Close())
	// Window 0 (the key frame) must have survived shedding: without it
	// nothing decodes at all.
	if decoded == 0 {
		t.Fatal("no windows decoded: key frame was shed")
	}
	if st := rx.Stats(); st.Decoded+st.DecodeFailures+st.Shed < 12 {
		t.Fatalf("windows unaccounted for: %+v", st)
	}
}

// TestMoteRebootResync restarts the encoder mid-stream: the receiver
// must detect the sequence reset, abandon the dead epoch, and decode
// the new boot's stream from its key frame.
func TestMoteRebootResync(t *testing.T) {
	enc, rx := survivalRig(t, 4, TransportConfig{})
	decoded := 0
	feed := func(n int) {
		for _, p := range encodeN(t, enc, n) {
			decoded += len(push(t, rx, p))
			rx.EndSlot()
		}
	}
	feed(10)
	enc.Reset() // mote brownout: sequence space restarts
	feed(6)
	decoded += len(rx.Close())
	st := rx.Stats()
	if st.Reboots != 1 {
		t.Fatalf("Reboots = %d, want 1: %+v", st.Reboots, st)
	}
	if decoded < 14 {
		t.Fatalf("decoded %d of 16 windows across a reboot", decoded)
	}
	if h := rx.Health(); h != HealthDecoding {
		t.Fatalf("health %v after reboot recovery, want decoding", h)
	}
}

// TestDegradationLadderFollowsCosts models CPU slowdowns: SetCosts puts
// the decoder on the first rung whose iteration cap fits the slowed
// budget — half the budget at 2×, a quarter at 4×, the quarter floor
// beyond — flags those windows Degraded, counts each rung change once,
// and returns to nominal as soon as the slowdown ends.
func TestDegradationLadderFollowsCosts(t *testing.T) {
	params := core.Params{Seed: 0x31, M: 64, N: 128, WaveletLevels: 3, KeyFrameInterval: 4}
	dec, err := NewRealTimeDecoder(params, VFP)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	dec.Instrument(reg, telemetry.NewManualClock(0))
	// Pin the iteration count at the full budget so the modeled time
	// tracks the cost model exactly (Tol off: every decode runs MaxIter).
	tun, err := dec.SolverTuning()
	if err != nil {
		t.Fatal(err)
	}
	tun.SolverOptions.Tol = -1
	enc, err := core.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, 128)
	for i := range win {
		win[i] = int16(1024 + i%5)
	}
	decode := func() *Result {
		t.Helper()
		p, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dec.Decode(p.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := dec.IterationBudget()
	slowed := func(x float64) CostModel {
		c := DefaultCosts()
		c.VFPCyclesPerMAC *= x
		c.NEONCyclesPerMAC *= x
		return c
	}
	for _, tc := range []struct {
		slowdown float64
		rung     Rung
		deadline bool
	}{
		{1, RungNominal, true},
		{2, RungReducedIter, true},
		{4, RungBestEffort, true},
		{8, RungBestEffort, false}, // past the floor: decodes miss
		{1, RungNominal, true},
	} {
		dec.SetCosts(slowed(tc.slowdown))
		if dec.Rung() != tc.rung {
			t.Fatalf("%v× slowdown: rung %v, want %v", tc.slowdown, dec.Rung(), tc.rung)
		}
		if got, want := dec.IterationBudget(), base/iterDiv[tc.rung]; got != want {
			t.Fatalf("%v× slowdown: iteration cap %d, want %d", tc.slowdown, got, want)
		}
		for i := 0; i < 3; i++ {
			res := decode()
			if res.Rung != tc.rung {
				t.Fatalf("%v× slowdown: decoded at %v, want %v", tc.slowdown, res.Rung, tc.rung)
			}
			if res.Degraded != (tc.rung != RungNominal) || res.Deadline != tc.deadline {
				t.Fatalf("%v× slowdown: degraded %v deadline %v", tc.slowdown, res.Degraded, res.Deadline)
			}
		}
	}
	// nominal → reduced → best-effort → (8×: unchanged) → nominal.
	if got := reg.Counter("coordinator_rung_shifts_total").Load(); got != 3 {
		t.Fatalf("coordinator_rung_shifts_total = %d, want 3", got)
	}
	if got := reg.Counter("coordinator_deadline_misses_total").Load(); got != 3 {
		t.Fatalf("coordinator_deadline_misses_total = %d, want 3", got)
	}
}

// TestFloorRungQualityNotWorseThanGPSR checks the fista/4 floor against
// GPSR at the same quarter budget, on the same warm windows of a
// database record at the paper's CR 50: mean PRDN must be no worse.
func TestFloorRungQualityNotWorseThanGPSR(t *testing.T) {
	p := core.Params{Seed: 1, M: metrics.MForCR(50, core.WindowSize)}
	const windows = 12
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(float64(windows*core.WindowSize)/core.FsMote, 0)
	if err != nil {
		t.Fatal(err)
	}
	meanPRDN := func(algo solver.Algorithm) float64 {
		t.Helper()
		enc, err := core.NewEncoder(p)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewRealTimeDecoder(p, VFP)
		if err != nil {
			t.Fatal(err)
		}
		slow := DefaultCosts()
		slow.VFPCyclesPerMAC *= 4
		dec.SetCosts(slow)
		if dec.Rung() != RungBestEffort {
			t.Fatalf("4× slowdown: rung %v", dec.Rung())
		}
		inner, err := dec.SolverTuning()
		if err != nil {
			t.Fatal(err)
		}
		inner.Algorithm = algo
		var sum float64
		for w := 0; w < windows; w++ {
			win := samples[w*core.WindowSize : (w+1)*core.WindowSize]
			pkt, err := enc.EncodeWindow(win)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if w == 0 {
				continue // cold start
			}
			orig := make([]float64, len(win))
			reco := make([]float64, len(win))
			for i := range win {
				orig[i], reco[i] = float64(win[i]), float64(res.Samples[i])
			}
			prdn, err := metrics.PRDN(orig, reco)
			if err != nil {
				t.Fatal(err)
			}
			sum += prdn
		}
		return sum / (windows - 1)
	}
	fista, gpsr := meanPRDN(solver.AlgoFISTA), meanPRDN(solver.AlgoGPSR)
	t.Logf("quarter-budget mean PRDN: fista %.2f %%, gpsr %.2f %%", fista, gpsr)
	if fista > gpsr {
		t.Fatalf("fista/4 mean PRDN %.2f %% worse than gpsr/4 %.2f %%", fista, gpsr)
	}
}

// TestDecodePanicRequestsKeyFrame: with the control channel on, a
// contained decode panic makes the next EndSlot ask the mote for a key
// frame, instead of riding out the failing deltas until the scheduled
// one, and decoding resumes on the key frame that answers it.
func TestDecodePanicRequestsKeyFrame(t *testing.T) {
	enc, rx := survivalRig(t, 64, TransportConfig{NACK: true}, 2)
	decoded := 0
	var keyReqs int
	for seq := 0; seq < 6; seq++ {
		pkts := encodeN(t, enc, 1)
		if seq == 3 && pkts[0].Kind != core.KindKey {
			t.Fatalf("window %d is not the requested key frame", seq)
		}
		decoded += len(push(t, rx, pkts[0]))
		ctrl, late := rx.EndSlot()
		decoded += len(late)
		for _, c := range ctrl {
			if c.Kind != core.KindKeyRequest {
				t.Fatalf("slot %d: control packet kind %d", seq, c.Kind)
			}
			if seq != 2 {
				t.Fatalf("key request after window %d, want after the panic on window 2", seq)
			}
			keyReqs++
			enc.ForceKeyFrame() // what the mote does on a key request
		}
	}
	st := rx.Stats()
	if keyReqs != 1 || st.KeyRequestsSent != 1 {
		t.Fatalf("%d key requests (%d counted), want 1", keyReqs, st.KeyRequestsSent)
	}
	// Windows 0 and 1 decode, 2 panics, and the requested key frame 3
	// resynchronizes the deltas behind it.
	if decoded != 5 || st.DecodePanics != 1 || st.DecodeFailures != 1 {
		t.Fatalf("decoded %d windows with %d panics, want 5 and 1: %+v", decoded, st.DecodePanics, st)
	}
}

// TestContainedPanicErrorNamesWindow checks the contained error carries
// the window for operator-facing events.
func TestContainedPanicErrorNamesWindow(t *testing.T) {
	enc, rx := survivalRig(t, 4, TransportConfig{}, 0)
	pkts := encodeN(t, enc, 1)
	res, panicked, err := rx.decodeContained(pkts[0])
	if res != nil || !panicked || err == nil || !strings.Contains(err.Error(), "window 0") {
		t.Fatalf("contained panic: res=%v err=%v", res, err)
	}
}
