package coordinator

import (
	"strings"
	"testing"

	"csecg/internal/core"
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

// TestDegradationLadderEngagesAndRecovers models a 2× CPU slowdown: the
// decoder must walk down the ladder (missed modeled deadlines), flag
// windows Degraded, then climb back to nominal once the slowdown ends.
func TestDegradationLadderEngagesAndRecovers(t *testing.T) {
	params := core.Params{Seed: 0x31, M: 64, N: 128, WaveletLevels: 3, KeyFrameInterval: 4}
	dec, err := NewRealTimeDecoder(params, VFP)
	if err != nil {
		t.Fatal(err)
	}
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
	if res := decode(); res.Degraded || dec.Rung() != RungNominal {
		t.Fatalf("nominal costs already degraded: rung %v", dec.Rung())
	}
	// 2× slowdown: full-budget decodes now model 2 s against the 1 s
	// budget; two consecutive misses escalate.
	slow := DefaultCosts()
	slow.VFPCyclesPerMAC *= 2
	slow.NEONCyclesPerMAC *= 2
	dec.SetCosts(slow)
	var reachedRung Rung
	for i := 0; i < 6; i++ {
		res := decode()
		if res.Rung > reachedRung {
			reachedRung = res.Rung
		}
		if res.Rung != RungNominal && !res.Degraded {
			t.Fatalf("off-nominal rung %v not flagged Degraded", res.Rung)
		}
	}
	if reachedRung == RungNominal {
		t.Fatal("2x slowdown never engaged the ladder")
	}
	// At the settled rung the halved budget fits the slowed model again,
	// and recovery must follow once the slowdown ends.
	dec.SetCosts(DefaultCosts())
	for i := 0; i < 3*deescalateAfterHits*int(numRungs); i++ {
		if decode(); dec.Rung() == RungNominal {
			break
		}
	}
	if dec.Rung() != RungNominal {
		t.Fatalf("ladder stuck at %v after slowdown ended", dec.Rung())
	}
}

// TestContainedPanicErrorNamesWindow checks the contained error carries
// the window for operator-facing events.
func TestContainedPanicErrorNamesWindow(t *testing.T) {
	enc, rx := survivalRig(t, 4, TransportConfig{}, 0)
	pkts := encodeN(t, enc, 1)
	res, err := rx.decodeContained(pkts[0])
	if res != nil || err == nil || !strings.Contains(err.Error(), "window 0") {
		t.Fatalf("contained panic: res=%v err=%v", res, err)
	}
}
