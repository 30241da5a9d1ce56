package blackbox

import (
	"bytes"
	"sync"
	"testing"

	"csecg/internal/coordinator"
)

// memSink collects sealed bundles in memory.
type memSink struct {
	mu      sync.Mutex
	bundles map[string][]byte
	order   []string
}

func (s *memSink) WriteBundle(name string, data []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bundles == nil {
		s.bundles = map[string][]byte{}
	}
	s.bundles[name] = append([]byte(nil), data...)
	s.order = append(s.order, name)
	return "mem://" + name, nil
}

func (s *memSink) last(t *testing.T) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		t.Fatal("no bundle sealed")
	}
	return s.bundles[s.order[len(s.order)-1]]
}

// testFrame renders a deterministic per-index payload so retained
// frames can be checked byte-for-byte after arena wraparound.
func testFrame(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// TestFrameRingWraparound drives the byte arena and entry ring past
// capacity and checks that the retained frames are exactly the newest
// suffix, byte-for-byte, across arena wrap boundaries.
func TestFrameRingWraparound(t *testing.T) {
	cases := []struct {
		name       string
		arena, cap int
		sizes      []int
		wantKept   int // newest frames that must survive
	}{
		{"arena-bound", 64, 16, repeat(24, 10), 2},
		{"entry-bound", 1 << 12, 4, repeat(8, 10), 4},
		{"uneven-wrap", 64, 16, []int{24, 17, 9, 31, 5, 23, 11}, 3},
		{"exact-fit", 48, 16, repeat(24, 6), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &memSink{}
			rec := NewRecorder(Config{Session: "wrap", Sink: sink,
				FrameArenaBytes: tc.arena, FrameCap: tc.cap})
			for i, n := range tc.sizes {
				rec.RecordFrame(i, uint32(i), 1, testFrame(i, n))
			}
			if _, err := rec.SealNow(TriggerManual, "test"); err != nil {
				t.Fatal(err)
			}
			b, err := ParseBundle(sink.last(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Frames) != tc.wantKept {
				t.Fatalf("kept %d frames, want %d", len(b.Frames), tc.wantKept)
			}
			first := len(tc.sizes) - tc.wantKept
			for k, f := range b.Frames {
				i := first + k
				if f.Seq != uint32(i) || !bytes.Equal(f.Data, testFrame(i, tc.sizes[i])) {
					t.Fatalf("frame %d: seq %d data %x, want seq %d data %x",
						k, f.Seq, f.Data, i, testFrame(i, tc.sizes[i]))
				}
			}
			wantEvicted := int64(first)
			if b.Header.EvictedFrames != wantEvicted || b.Header.Wrapped != (wantEvicted > 0) {
				t.Fatalf("evicted %d wrapped %v, want %d %v",
					b.Header.EvictedFrames, b.Header.Wrapped, wantEvicted, wantEvicted > 0)
			}
		})
	}
}

func repeat(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// TestOversizeFrameCounted: a frame larger than the whole arena is
// dropped (and counted), not recorded or wedged.
func TestOversizeFrameCounted(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(Config{Session: "big", Sink: sink, FrameArenaBytes: 32, FrameCap: 4})
	rec.RecordFrame(0, 0, 1, testFrame(0, 64))
	rec.RecordFrame(1, 1, 1, testFrame(1, 16))
	if _, err := rec.SealNow(TriggerManual, "test"); err != nil {
		t.Fatal(err)
	}
	b, err := ParseBundle(sink.last(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Frames) != 1 || b.Frames[0].Seq != 1 {
		t.Fatalf("frames %+v, want only seq 1", b.Frames)
	}
	if !b.Header.Wrapped || b.Header.EvictedFrames != 1 {
		t.Fatalf("oversize frame not accounted: %+v", b.Header)
	}
}

// TestWindowAndEventRingWraparound: both fixed rings evict oldest-first
// and the snapshot preserves order.
func TestWindowAndEventRingWraparound(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(Config{Session: "rings", Sink: sink, WindowCap: 4, EventCap: 3})
	for i := 0; i < 10; i++ {
		rec.RecordWindow(coordinator.WindowCapture{Slot: i, Ordinal: int64(i), Seq: uint32(i)})
		rec.RecordHealth(i, coordinator.HealthStarting, coordinator.HealthDecoding)
	}
	if got := rec.capturedWindows; got != 10 {
		t.Fatalf("captured %d windows, want 10", got)
	}
	if _, err := rec.SealNow(TriggerManual, "test"); err != nil {
		t.Fatal(err)
	}
	b, err := ParseBundle(sink.last(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Windows) != 4 || b.Windows[0].Ordinal != 6 || b.Windows[3].Ordinal != 9 {
		t.Fatalf("window ring snapshot wrong: %+v", b.Windows)
	}
	if b.Header.EvictedWindows != 6 || b.Header.Captured != 10 {
		t.Fatalf("window accounting wrong: %+v", b.Header)
	}
	// 10 health events + the seal's own trigger event through a 3-slot
	// ring: the two newest health events plus the trigger survive.
	if len(b.Events) != 3 || b.Events[0].Slot != 8 || b.Events[1].Slot != 9 ||
		b.Events[2].Kind != "trigger" {
		t.Fatalf("event ring snapshot wrong: %+v", b.Events)
	}
	if b.Events[0].Kind != "health" || b.Events[0].From != "starting" || b.Events[0].To != "decoding" {
		t.Fatalf("health event mangled: %+v", b.Events[0])
	}
}

// TestTriggerRateLimiting pins the seal throttle: the first automatic
// trigger seals, a second inside the window gap is suppressed, enough
// captured windows re-arm it, SealNow bypasses the gap, and MaxBundles
// caps the lifetime total no matter what.
func TestTriggerRateLimiting(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(Config{Session: "limit", Sink: sink,
		RateLimitWindows: 4, MaxBundles: 3})

	if path := rec.TriggerSeal(TriggerSLO, 100, "first"); path == "" {
		t.Fatalf("first trigger suppressed: %v", rec.SealErr())
	}
	if path := rec.TriggerSeal(TriggerSLO, 200, "too soon"); path != "" {
		t.Fatalf("gap-violating trigger sealed %s", path)
	}
	if rec.suppressed != 1 {
		t.Fatalf("suppressed %d, want 1", rec.suppressed)
	}
	for i := 0; i < 4; i++ {
		rec.RecordWindow(coordinator.WindowCapture{Ordinal: int64(i)})
	}
	if path := rec.TriggerSeal(TriggerPanic, 300, "re-armed"); path == "" {
		t.Fatal("re-armed trigger suppressed")
	}
	// Manual seal bypasses the gap...
	if _, err := rec.SealNow(TriggerManual, "operator"); err != nil {
		t.Fatalf("manual seal inside gap: %v", err)
	}
	// ...but nothing bypasses the lifetime cap.
	if _, err := rec.SealNow(TriggerManual, "over cap"); err != ErrSuppressed {
		t.Fatalf("seal over MaxBundles: err %v, want ErrSuppressed", err)
	}
	if got := rec.BundlesWritten(); got != 3 {
		t.Fatalf("wrote %d bundles, want 3", got)
	}
	// Deterministic names: session, per-session ordinal, cause.
	want := []string{
		"bundle-limit-000-slo.jsonl",
		"bundle-limit-001-decode-panic.jsonl",
		"bundle-limit-002-manual.jsonl",
	}
	for i, name := range want {
		if sink.order[i] != name {
			t.Fatalf("bundle %d named %s, want %s", i, sink.order[i], name)
		}
	}
	// The suppressed trigger left its audit event behind.
	b, err := ParseBundle(sink.bundles[want[2]])
	if err != nil {
		t.Fatal(err)
	}
	sawSuppressed := false
	for _, e := range b.Events {
		if e.Kind == "trigger" && e.Suppressed {
			sawSuppressed = true
		}
	}
	if !sawSuppressed {
		t.Fatal("suppressed trigger not recorded in the event ring")
	}
}

// TestSealWithoutSink: triggers on a sink-less recorder report ErrNoSink
// and never wedge the capture path.
func TestSealWithoutSink(t *testing.T) {
	rec := NewRecorder(Config{Session: "nosink"})
	if _, err := rec.SealNow(TriggerManual, "test"); err != ErrNoSink {
		t.Fatalf("err %v, want ErrNoSink", err)
	}
	rec.RecordWindow(coordinator.WindowCapture{})
	if rec.capturedWindows != 1 {
		t.Fatal("capture broken after sink-less seal")
	}
}

// TestConcurrentCaptureAndSeal hammers every capture method from
// parallel goroutines while seals race them — the -race build is the
// real assertion; the parses check the snapshots stayed coherent.
func TestConcurrentCaptureAndSeal(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(Config{Session: "race", Sink: sink,
		FrameArenaBytes: 1 << 10, FrameCap: 32, WindowCap: 32, EventCap: 16,
		RateLimitWindows: 1, MaxBundles: 64})
	rec.AttachRegistry(nil)

	const iters = 400
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		frame := testFrame(7, 48)
		for i := 0; i < iters; i++ {
			rec.RecordFrame(i, uint32(i), 1, frame)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec.RecordWindow(coordinator.WindowCapture{Slot: i, Ordinal: int64(i), Seq: uint32(i)})
			rec.RecordSlot(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec.RecordHealth(i, coordinator.HealthDecoding, coordinator.HealthDegraded)
			rec.RecordSLOTransition(int64(i), "quality", 0, 1)
			rec.RecordDecodeFailure(i, int64(i), uint32(i), false)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			rec.TriggerSeal(TriggerSLO, int64(i), "concurrent")
			rec.SealNow(TriggerManual, "concurrent") //csecg:errok cap/suppression expected
		}
	}()
	wg.Wait()
	rec.Drain()
	if err := rec.SealErr(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.order) == 0 {
		t.Fatal("no bundle survived the race")
	}
	for _, name := range sink.order {
		if _, err := ParseBundle(sink.bundles[name]); err != nil {
			t.Fatalf("torn bundle %s: %v", name, err)
		}
	}
}

// TestCaptureAllocsFree pins the zero-allocation contract on every
// capture-path method — the runtime check backing the csecg-vet noalloc
// static analysis.
func TestCaptureAllocsFree(t *testing.T) {
	rec := NewRecorder(Config{Session: "alloc",
		FrameArenaBytes: 1 << 12, FrameCap: 16, WindowCap: 16, EventCap: 16})
	frame := testFrame(3, 96)
	w := coordinator.WindowCapture{Slot: 1, Ordinal: 1, Seq: 1, ResidualNorm: 0.5}
	methods := []struct {
		name string
		fn   func()
	}{
		{"RecordFrame", func() { rec.RecordFrame(1, 1, 1, frame) }},
		{"RecordWindow", func() { rec.RecordWindow(w) }},
		{"RecordHealth", func() { rec.RecordHealth(1, coordinator.HealthDecoding, coordinator.HealthDegraded) }},
		{"RecordSLOTransition", func() { rec.RecordSLOTransition(1, "quality", 0, 1) }},
		{"RecordSlot", func() { rec.RecordSlot(2) }},
		{"RecordDecodeFailure", func() { rec.RecordDecodeFailure(1, 1, 1, false) }},
	}
	for _, m := range methods {
		if n := testing.AllocsPerRun(200, m.fn); n != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", m.name, n)
		}
	}
}

// TestBundleSizeCapDropsOldestFrames: the size cap sheds the oldest
// frames (the replay payload) while the incident narrative — windows,
// events, metrics — always survives, and the header says so honestly.
func TestBundleSizeCapDropsOldestFrames(t *testing.T) {
	const capBytes = 8192
	sink := &memSink{}
	rec := NewRecorder(Config{Session: "cap", Sink: sink,
		FrameArenaBytes: 1 << 14, FrameCap: 64, MaxBundleBytes: capBytes})
	for i := 0; i < 40; i++ {
		rec.RecordFrame(i, uint32(i), 1, testFrame(i, 80))
		rec.RecordWindow(coordinator.WindowCapture{Slot: i, Ordinal: int64(i), Seq: uint32(i)})
	}
	if _, err := rec.SealNow(TriggerManual, "test"); err != nil {
		t.Fatal(err)
	}
	data := sink.last(t)
	if len(data) > capBytes {
		t.Fatalf("bundle %d bytes exceeds the %d cap", len(data), capBytes)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Header.Truncated || b.Header.DroppedFrames == 0 {
		t.Fatalf("cap not reflected in header: %+v", b.Header)
	}
	if len(b.Windows) != 40 {
		t.Fatalf("size cap ate %d windows, must only drop frames", 40-len(b.Windows))
	}
	if len(b.Frames) == 0 {
		t.Fatal("cap dropped every frame; budget accounting too aggressive")
	}
	// The kept frames are the newest suffix.
	if b.Frames[len(b.Frames)-1].Seq != 39 {
		t.Fatalf("newest frame seq %d, want 39", b.Frames[len(b.Frames)-1].Seq)
	}
	if b.Header.Complete() {
		t.Fatal("truncated bundle claims completeness")
	}
}

// TestParseBundleRejects: envelope strictness.
func TestParseBundleRejects(t *testing.T) {
	valid := func() []byte {
		sink := &memSink{}
		rec := NewRecorder(Config{Session: "v", Sink: sink})
		rec.RecordWindow(coordinator.WindowCapture{Ordinal: 1})
		if _, err := rec.SealNow(TriggerManual, "t"); err != nil {
			t.Fatal(err)
		}
		return sink.last(t)
	}()
	if _, err := ParseBundle(valid); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no-header", []byte(`{"type":"window","ordinal":1}`)},
		{"bad-version", []byte(`{"type":"header","version":99,"meta":{}}`)},
		{"unknown-type", append(append([]byte{}, valid...), []byte(`{"type":"mystery"}`)...)},
		{"duplicate-header", append(append([]byte{}, valid...), valid...)},
		{"count-mismatch", append(append([]byte{}, valid...), []byte(`{"type":"window","ordinal":2}`)...)},
		{"garbage", []byte("not json at all")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBundle(tc.data); err == nil {
				t.Fatal("malformed bundle accepted")
			}
		})
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"":              "session",
		"record 100":    "record-100",
		"a/b\\c:d":      "a-b-c-d",
		"ok-name_1.2":   "ok-name_1.2",
		"ünïcode":       "--n--code",
		"record\n100\t": "record-100-",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
	h := Header{Session: "record 100", Ordinal: 7, Cause: "slo"}
	if got := bundleName(h); got != "bundle-record-100-007-slo.jsonl" {
		t.Errorf("bundleName = %q", got)
	}
}

// FuzzParseBundle: the parser must never panic, and anything it
// accepts must survive an encode→parse round trip.
func FuzzParseBundle(f *testing.F) {
	sink := &memSink{}
	rec := NewRecorder(Config{Session: "fuzz-seed", Sink: sink})
	rec.RecordFrame(0, 0, 1, testFrame(0, 32))
	rec.RecordWindow(coordinator.WindowCapture{Ordinal: 0, ResidualNorm: 1.25})
	rec.RecordHealth(0, coordinator.HealthStarting, coordinator.HealthDecoding)
	if _, err := rec.SealNow(TriggerManual, "seed"); err != nil {
		f.Fatal(err)
	}
	f.Add(sink.bundles[sink.order[0]])
	f.Add([]byte(`{"type":"header","version":1,"meta":{}}`))
	f.Add([]byte(`{"type":"header","version":1,"frames":1,"meta":{}}` + "\n" +
		`{"type":"frame","data":"AAECAw=="}`))
	f.Add([]byte("{}\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(data)
		if err != nil {
			return
		}
		enc, err := encodeBundle(b, DefaultMaxBundleBytes)
		if err != nil {
			t.Fatalf("accepted bundle failed to re-encode: %v", err)
		}
		if _, err := ParseBundle(enc); err != nil {
			t.Fatalf("round trip broke: %v\nbundle: %s", err, enc)
		}
	})
}
