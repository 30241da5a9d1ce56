package monitor_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/monitor"
	"csecg/internal/telemetry"
)

// gatedSink blocks WriteBundle until released — the seam that holds a
// bundle write in flight across a server drain.
type gatedSink struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	wrote []string
}

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *gatedSink) WriteBundle(name string, data []byte) (string, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	s.mu.Lock()
	s.wrote = append(s.wrote, name)
	s.mu.Unlock()
	return "gated://" + name, nil
}

func (s *gatedSink) written() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.wrote)
}

// TestShutdownDrainsBundleWrites pins the shutdown contract extension:
// WaitIdle blocks until an in-flight bundle seal has landed, so closing
// the process mid-incident cannot truncate the one artifact that
// explains the incident.
func TestShutdownDrainsBundleWrites(t *testing.T) {
	sink := newGatedSink()
	rec := blackbox.NewRecorder(blackbox.Config{Session: "drain", Sink: sink})
	srv := monitor.NewServer(&telemetry.ManualClock{})
	srv.Attach(monitor.NewSession(monitor.SessionConfig{Name: "drain", Recorder: rec}, nil))

	sealDone := make(chan error, 1)
	go func() {
		_, err := rec.SealNow(blackbox.TriggerManual, "incident")
		sealDone <- err
	}()
	<-sink.entered // the write is on the wire

	srv.BeginDrain()
	idle := make(chan struct{})
	go func() {
		srv.WaitIdle()
		close(idle)
	}()
	select {
	case <-idle:
		t.Fatal("WaitIdle returned while a bundle write was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(sink.release)
	select {
	case <-idle:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitIdle never returned after the write landed")
	}
	if err := <-sealDone; err != nil {
		t.Fatal(err)
	}
	if sink.written() != 1 {
		t.Fatalf("wrote %d bundles, want 1", sink.written())
	}
}

// openSink records bundles without blocking.
type openSink struct {
	mu    sync.Mutex
	wrote []string
}

func (s *openSink) WriteBundle(name string, data []byte) (string, error) {
	s.mu.Lock()
	s.wrote = append(s.wrote, name)
	s.mu.Unlock()
	return "mem://" + name, nil
}

// TestDebugBundleEndpoint covers POST /debug/bundle: method gating,
// per-session filtering, the no-recorder 404, and the drain 503.
func TestDebugBundleEndpoint(t *testing.T) {
	sink := &openSink{}
	rec := blackbox.NewRecorder(blackbox.Config{Session: "record 100", Sink: sink})
	srv := monitor.NewServer(&telemetry.ManualClock{})
	srv.Attach(monitor.NewSession(monitor.SessionConfig{Name: "record 100", Recorder: rec}, nil))
	srv.Attach(monitor.NewSession(monitor.SessionConfig{Name: "record 200"}, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, _ := do(http.MethodGet, "/debug/bundle"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /debug/bundle: %d, want 405", code)
	}
	if code, body := do(http.MethodPost, "/debug/bundle?session=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d %s, want 404", code, body)
	}
	// record 200 exists but has no recorder.
	if code, body := do(http.MethodPost, "/debug/bundle?session=record+200"); code != http.StatusNotFound ||
		!strings.Contains(body, "no attached session has a flight recorder") {
		t.Fatalf("recorder-less session: %d %s, want 404", code, body)
	}
	code, body := do(http.MethodPost, "/debug/bundle")
	if code != http.StatusOK {
		t.Fatalf("POST /debug/bundle: %d %s", code, body)
	}
	if !strings.Contains(body, `"session": "record 100"`) ||
		!strings.Contains(body, "mem://bundle-record-100-000-manual.jsonl") {
		t.Fatalf("bundle response missing the sealed path: %s", body)
	}
	if len(sink.wrote) != 1 {
		t.Fatalf("sealed %d bundles, want 1", len(sink.wrote))
	}

	srv.BeginDrain()
	if code, _ := do(http.MethodPost, "/debug/bundle"); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d, want 503", code)
	}
}

// stepClock is a telemetry.Clock the test moves by hand.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) Now() int64 { return c.ns.Load() }

// TestMetricsProcessSeries: /metrics leads with the process-level
// series — build metadata and uptime — ahead of any session registry.
func TestMetricsProcessSeries(t *testing.T) {
	clk := &stepClock{}
	srv := monitor.NewServer(clk)
	clk.ns.Add(2_500_000_000) // 2.5 s of uptime
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE csecg_build_info gauge",
		`csecg_build_info{version=`,
		`go="go1.`,
		"# TYPE process_uptime_seconds_total counter",
		"process_uptime_seconds_total 2.500",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if !strings.HasPrefix(body, "# HELP csecg_build_info") {
		t.Errorf("process series must lead the exposition, got:\n%.200s", body)
	}
}
