package core

import (
	"math"
	"testing"
	"testing/quick"

	"csecg/internal/ecg"
	"csecg/internal/metrics"
)

// testWindows renders windows of record 100 at 256 Hz.
func testWindows(t testing.TB, seconds float64) [][]int16 {
	t.Helper()
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(seconds, 0)
	if err != nil {
		t.Fatal(err)
	}
	var windows [][]int16
	for i := 0; i+WindowSize <= len(samples); i += WindowSize {
		windows = append(windows, samples[i:i+WindowSize])
	}
	if len(windows) == 0 {
		t.Fatal("no windows rendered")
	}
	return windows
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := &Packet{Seq: 42, Kind: KindDelta, NumSymbols: 256, Payload: []byte{1, 2, 3, 4, 5}}
	blob, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := UnmarshalPacket(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Errorf("consumed %d of %d bytes", n, len(blob))
	}
	if got.Seq != 42 || got.Kind != KindDelta || got.NumSymbols != 256 || len(got.Payload) != 5 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestPacketRejectsCorruption(t *testing.T) {
	p := &Packet{Seq: 1, Kind: KindKey, Payload: make([]byte, 64)}
	blob, _ := p.Marshal()
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[0] ^= 0xFF; return b },        // magic
		func(b []byte) []byte { b[1] = 99; return b },           // kind
		func(b []byte) []byte { b[20] ^= 0x01; return b },       // payload bit
		func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, // checksum
		func(b []byte) []byte { return b[:len(b)-3] },           // truncation
		func(b []byte) []byte { return b[:5] },                  // header truncation
	} {
		bad := mutate(append([]byte(nil), blob...))
		if _, _, err := UnmarshalPacket(bad); err == nil {
			t.Error("corrupted packet accepted")
		}
	}
}

func TestPacketMarshalProperty(t *testing.T) {
	f := func(seq uint32, nsym uint16, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		p := &Packet{Seq: seq, Kind: KindDelta, NumSymbols: nsym, Payload: payload}
		blob, err := p.Marshal()
		if err != nil {
			return false
		}
		got, n, err := UnmarshalPacket(blob)
		if err != nil || n != len(blob) {
			return false
		}
		if got.Seq != seq || got.NumSymbols != nsym || len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCodebookComplete(t *testing.T) {
	cb := DefaultCodebook()
	if cb.NumSymbols() != 512 {
		t.Fatalf("default codebook has %d symbols", cb.NumSymbols())
	}
	for s := 0; s < 512; s++ {
		if l := cb.CodeLen(s); l < 1 || l > 16 {
			t.Fatalf("symbol %d length %d", s, l)
		}
	}
	// Near-zero diffs must code shorter than extreme diffs.
	if cb.CodeLen(256) >= cb.CodeLen(0) {
		t.Errorf("center symbol length %d not shorter than tail %d", cb.CodeLen(256), cb.CodeLen(0))
	}
}

func TestMeasurementStateRoundTrip(t *testing.T) {
	// Key + delta chain: the decoder's accumulated measurements must
	// exactly equal the encoder's integer measurements for every packet
	// (the entropy+difference stages are lossless).
	params := Params{Seed: 0x1234}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder[float64](params)
	if err != nil {
		t.Fatal(err)
	}
	dec.SolverOptions.MaxIter = 1 // recovery quality irrelevant here
	windows := testWindows(t, 22)
	for wi, win := range windows {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		if _, err := dec.DecodePacket(pkt); err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		for i := range enc.prevY {
			if enc.prevY[i] != dec.prevY[i] {
				t.Fatalf("window %d: measurement %d diverged (enc %d, dec %d)", wi, i, enc.prevY[i], dec.prevY[i])
			}
		}
	}
}

func TestEndToEndReconstructionQuality(t *testing.T) {
	params := Params{Seed: 0x0BB1, M: metrics.MForCR(50, WindowSize)}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder[float64](params)
	if err != nil {
		t.Fatal(err)
	}
	windows := testWindows(t, 14)
	var prds []float64
	for _, win := range windows {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dec.DecodePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]float64, len(win))
		recon := make([]float64, len(win))
		for i := range win {
			orig[i] = float64(win[i])
			recon[i] = float64(res.Samples[i])
		}
		prdn, err := metrics.PRDN(orig, recon)
		if err != nil {
			t.Fatal(err)
		}
		prds = append(prds, prdn)
	}
	// Skip the cold-start window; steady-state quality must stay near
	// the paper's CR=50 operating point (Fig. 6 reads ≈20 PRD there;
	// our tuned solver does better on the substitute records).
	var worst float64
	for _, p := range prds[1:] {
		if p > worst {
			worst = p
		}
	}
	if worst > 12 {
		t.Errorf("steady-state PRDN up to %v, want < 12 (all: %v)", worst, prds)
	}
}

func TestCompressionRatioAchieved(t *testing.T) {
	params := Params{Seed: 7, M: metrics.MForCR(50, WindowSize)}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	windows := testWindows(t, 62)
	var rawBits, compBits int
	for _, win := range windows {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		rawBits += enc.RawWindowBits()
		compBits += pkt.WireSize() * 8
	}
	cr := metrics.CR(rawBits, compBits)
	// CS stage alone removes 50%; the difference+entropy stage must push
	// the overall wire CR beyond it despite header overhead.
	if cr < 55 {
		t.Errorf("overall CR = %.1f%%, want > 55%%", cr)
	}
	t.Logf("overall wire CR at M=N/2: %.1f%%", cr)
}

func TestDeltaPacketsSmallerThanKey(t *testing.T) {
	params := Params{Seed: 3}
	enc, _ := NewEncoder(params)
	windows := testWindows(t, 10)
	var keySize, deltaSize int
	for i, win := range windows {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if pkt.Kind != KindKey {
				t.Fatal("first packet not a key frame")
			}
			keySize = pkt.WireSize()
		} else if pkt.Kind == KindDelta && deltaSize == 0 {
			deltaSize = pkt.WireSize()
		}
	}
	if deltaSize == 0 {
		t.Fatal("no delta packet produced")
	}
	if deltaSize >= keySize {
		t.Errorf("delta packet %d B not smaller than key %d B", deltaSize, keySize)
	}
}

func TestDecoderRejectsGapUntilKeyFrame(t *testing.T) {
	params := Params{Seed: 5, KeyFrameInterval: 4}
	enc, _ := NewEncoder(params)
	dec, _ := NewDecoder[float64](params)
	dec.SolverOptions.MaxIter = 1
	windows := testWindows(t, 26)
	var packets []*Packet
	for _, win := range windows {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		packets = append(packets, pkt.Clone())
	}
	if len(packets) < 9 {
		t.Fatalf("need ≥9 packets, got %d", len(packets))
	}
	// Deliver 0,1 then drop 2 and deliver 3 (delta): must fail.
	for _, i := range []int{0, 1} {
		if _, err := dec.DecodePacket(packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dec.DecodePacket(packets[3]); err == nil {
		t.Fatal("delta after gap accepted")
	}
	// Subsequent deltas also rejected...
	if _, err := dec.DecodePacket(packets[5]); err == nil {
		t.Fatal("delta while desynced accepted")
	}
	// ...until the next key frame (seq 4, 8, ... with interval 4).
	if packets[8].Kind != KindKey {
		t.Fatalf("packet 8 is %v, want key", packets[8].Kind)
	}
	res, err := dec.DecodePacket(packets[8])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resynced {
		t.Error("key frame after gap did not report resync")
	}
	// Stream continues.
	if _, err := dec.DecodePacket(packets[9]); err != nil {
		t.Fatalf("delta after resync: %v", err)
	}
}

func TestDecoderDeltaBeforeKey(t *testing.T) {
	params := Params{Seed: 5}
	enc, _ := NewEncoder(params)
	dec, _ := NewDecoder[float64](params)
	dec.SolverOptions.MaxIter = 1
	windows := testWindows(t, 6)
	p0, _ := enc.EncodeWindow(windows[0])
	p0 = p0.Clone() // retained across the next encode call
	p1, err := enc.EncodeWindow(windows[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodePacket(p1); err == nil {
		t.Fatal("delta before key accepted")
	}
	if _, err := dec.DecodePacket(p0); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(Params{M: -1}); err == nil {
		t.Error("negative M accepted")
	}
	if _, err := NewEncoder(Params{M: WindowSize + 1}); err == nil {
		t.Error("M > N accepted")
	}
	enc, err := NewEncoder(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeWindow(make([]int16, 7)); err == nil {
		t.Error("short window accepted")
	}
}

func TestEncoderReset(t *testing.T) {
	params := Params{Seed: 9}
	enc, _ := NewEncoder(params)
	windows := testWindows(t, 6)
	a1, _ := enc.EncodeWindow(windows[0])
	a1 = a1.Clone() // packets are encoder-owned; clone to compare across calls
	b1, _ := enc.EncodeWindow(windows[1])
	b1 = b1.Clone()
	enc.Reset()
	a2, _ := enc.EncodeWindow(windows[0])
	a2 = a2.Clone()
	b2, _ := enc.EncodeWindow(windows[1])
	if a1.Kind != a2.Kind || a1.Seq != a2.Seq || len(a1.Payload) != len(a2.Payload) {
		t.Error("reset did not reproduce first packet")
	}
	for i := range a1.Payload {
		if a1.Payload[i] != a2.Payload[i] {
			t.Fatal("key payload differs after reset")
		}
	}
	for i := range b1.Payload {
		if b1.Payload[i] != b2.Payload[i] {
			t.Fatal("delta payload differs after reset")
		}
	}
}

func TestEscapePathRoundTrip(t *testing.T) {
	// Force huge measurement jumps (square-wave windows) so differences
	// overflow [−256, 255] and exercise the escape coding.
	params := Params{Seed: 11, KeyFrameInterval: 1000}
	enc, _ := NewEncoder(params)
	dec, _ := NewDecoder[float64](params)
	dec.SolverOptions.MaxIter = 1
	mk := func(level int16) []int16 {
		w := make([]int16, WindowSize)
		for i := range w {
			w[i] = level
		}
		return w
	}
	for wi, win := range [][]int16{mk(1024), mk(2000), mk(100), mk(2047), mk(0)} {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		if _, err := dec.DecodePacket(pkt); err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		for i := range enc.prevY {
			if enc.prevY[i] != dec.prevY[i] {
				t.Fatalf("window %d: escape path diverged at %d", wi, i)
			}
		}
	}
}

func TestFloat32DecoderMatchesFloat64(t *testing.T) {
	params := Params{Seed: 21, M: metrics.MForCR(50, WindowSize)}
	enc, _ := NewEncoder(params)
	d64, _ := NewDecoder[float64](params)
	d32, _ := NewDecoder[float32](params)
	windows := testWindows(t, 8)
	for _, win := range windows {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := pkt.Marshal()
		p64, _, _ := UnmarshalPacket(blob)
		p32, _, _ := UnmarshalPacket(blob)
		r64, err := d64.DecodePacket(p64)
		if err != nil {
			t.Fatal(err)
		}
		r32, err := d32.DecodePacket(p32)
		if err != nil {
			t.Fatal(err)
		}
		// Fig. 6's claim: PRD difference between precisions is
		// negligible relative to the reconstruction error itself.
		orig := make([]float64, len(win))
		re64 := make([]float64, len(win))
		re32 := make([]float64, len(win))
		for i := range win {
			orig[i] = float64(win[i])
			re64[i] = float64(r64.Samples[i])
			re32[i] = float64(r32.Samples[i])
		}
		p1, err := metrics.PRDN(orig, re64)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := metrics.PRDN(orig, re32)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1-p2) > 1+0.2*p1 {
			t.Errorf("precision PRDN divergence: float64 %v vs float32 %v", p1, p2)
		}
	}
}

func BenchmarkEncodeWindow(b *testing.B) {
	enc, err := NewEncoder(Params{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	win := testWindows(b, 4)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeWindow(win); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePacketFloat32(b *testing.B) {
	params := Params{Seed: 1}
	enc, _ := NewEncoder(params)
	dec, _ := NewDecoder[float32](params)
	dec.SolverOptions.MaxIter = 200
	win := testWindows(b, 4)[0]
	pkt, err := enc.EncodeWindow(win)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.synced = false
		dec.nextSeq = 0
		dec.haveWarm = false
		if _, err := dec.DecodePacket(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeasurementLockstepProperty(t *testing.T) {
	// Property: for arbitrary window contents (full int16 ADC range,
	// including rail-to-rail jumps that force escape coding), the
	// decoder's measurement state tracks the encoder's exactly.
	params := Params{Seed: 0x99, N: 128, M: 64, WaveletLevels: 3, KeyFrameInterval: 5}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder[float64](params)
	if err != nil {
		t.Fatal(err)
	}
	dec.SolverOptions.MaxIter = 1
	f := func(seed uint64) bool {
		gen := seed | 1
		win := make([]int16, 128)
		for i := range win {
			gen ^= gen << 13
			gen ^= gen >> 7
			gen ^= gen << 17
			win[i] = int16(gen % 2048) // raw ADC range
		}
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			return false
		}
		blob, err := pkt.Marshal()
		if err != nil {
			return false
		}
		rx, _, err := UnmarshalPacket(blob)
		if err != nil {
			return false
		}
		if _, err := dec.DecodePacket(rx); err != nil {
			return false
		}
		for i := range enc.prevY {
			if enc.prevY[i] != dec.prevY[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestControlPacketHelpers(t *testing.T) {
	n := NewNack(42, 3)
	first, count, err := NackRange(n)
	if err != nil || first != 42 || count != 3 {
		t.Errorf("NackRange = (%d, %d, %v), want (42, 3, nil)", first, count, err)
	}
	if got := NewNack(1, 100); got.Payload[0] != MaxNackRange {
		t.Errorf("NACK count not saturated: %d", got.Payload[0])
	}
	if got := NewNack(1, 0); got.Payload[0] != 1 {
		t.Errorf("NACK count not floored: %d", got.Payload[0])
	}
	if _, _, err := NackRange(NewKeyRequest(5)); err == nil {
		t.Error("NackRange accepted a key request")
	}
	if _, _, err := NackRange(&Packet{Kind: KindNack}); err == nil {
		t.Error("NackRange accepted an empty payload")
	}
	if !KindNack.IsControl() || !KindKeyRequest.IsControl() || KindKey.IsControl() || KindDelta.IsControl() {
		t.Error("IsControl misclassifies a kind")
	}
}

func TestControlPacketsRoundTripTheWire(t *testing.T) {
	for _, pkt := range []*Packet{NewNack(7, 2), NewKeyRequest(9)} {
		blob, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		rx, n, err := UnmarshalPacket(blob)
		if err != nil {
			t.Fatalf("control packet rejected by the parser: %v", err)
		}
		if n != len(blob) || rx.Kind != pkt.Kind || rx.Seq != pkt.Seq {
			t.Errorf("round trip mangled %+v into %+v", pkt, rx)
		}
	}
}

func TestDecoderRejectsControlKinds(t *testing.T) {
	params := Params{Seed: 5, M: 64, N: 128, WaveletLevels: 3}
	dec, err := NewDecoder[float64](params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodePacket(NewNack(0, 1)); err == nil {
		t.Error("decoder accepted a NACK")
	}
	if _, err := dec.DecodePacket(NewKeyRequest(0)); err == nil {
		t.Error("decoder accepted a key request")
	}
}

func TestForceKeyFrame(t *testing.T) {
	params := Params{Seed: 5, KeyFrameInterval: 64}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	windows := testWindows(t, 8)
	if len(windows) < 4 {
		t.Fatalf("need 4 windows, got %d", len(windows))
	}
	pkt, err := enc.EncodeWindow(windows[0])
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Kind != KindKey {
		t.Fatal("first packet not a key frame")
	}
	if pkt, err = enc.EncodeWindow(windows[1]); err != nil || pkt.Kind != KindDelta {
		t.Fatalf("second packet %v (%v), want delta", pkt.Kind, err)
	}
	enc.ForceKeyFrame()
	if pkt, err = enc.EncodeWindow(windows[2]); err != nil || pkt.Kind != KindKey {
		t.Fatalf("forced packet %v (%v), want key", pkt.Kind, err)
	}
	if pkt.Seq != 2 {
		t.Errorf("forced key frame renumbered the stream: seq %d", pkt.Seq)
	}
	// The force is one-shot.
	if pkt, err = enc.EncodeWindow(windows[3]); err != nil || pkt.Kind != KindDelta {
		t.Fatalf("post-force packet %v (%v), want delta", pkt.Kind, err)
	}
}
