package monitor_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"csecg"
	"csecg/internal/coordinator"
	"csecg/internal/monitor"
	"csecg/internal/telemetry"
)

// TestSLOBurnRateLadder walks one tracker through the full alert graph
// — ok → warning → critical → warning → ok — and checks the gauges,
// the counter, and the JSONL transition log agree at every step.
func TestSLOBurnRateLadder(t *testing.T) {
	var sink bytes.Buffer
	reg := telemetry.NewRegistry()
	slo := monitor.NewSLO(monitor.SLOConfig{
		Name: "quality", Budget: 0.2, Window: 10,
		WarnBurn: 1, PageBurn: 2, MinSamples: 2,
	}, "rec 100", reg, &sink)

	now := int64(0)
	observe := func(violated bool) {
		now += 2_000_000_000
		slo.Observe(now, violated)
	}
	// Clean ramp-up: never leaves ok.
	for i := 0; i < 4; i++ {
		observe(false)
	}
	if got := slo.Snapshot().State; got != monitor.AlertOK.String() {
		t.Fatalf("clean ramp: state %v, want ok", got)
	}
	// One violation in five samples burns the 20 % budget exactly on
	// schedule → warning; three of seven samples burn 2.1× → page.
	observe(true)
	if got := slo.Snapshot().State; got != monitor.AlertWarning.String() {
		t.Fatalf("burn 1.0: state %v, want warning", got)
	}
	observe(true)
	observe(true)
	if got := slo.Snapshot().State; got != monitor.AlertCritical.String() {
		t.Fatalf("burn 2.1: state %v, want critical", got)
	}
	if g := reg.Gauge("slo_quality_alert_state").Load(); g != int64(monitor.AlertCritical) {
		t.Errorf("alert gauge %d, want %d", g, monitor.AlertCritical)
	}
	if b := reg.Gauge("slo_quality_burn_milli").Load(); b < 2000 {
		t.Errorf("burn gauge %d milli, want ≥ 2000", b)
	}
	// Clean tail: the window slides the burst out and the alert clears.
	for i := 0; i < 10; i++ {
		observe(false)
	}
	if got := slo.Snapshot().State; got != monitor.AlertOK.String() {
		t.Fatalf("after clean tail: state %v, want ok", got)
	}
	if got := slo.Snapshot().Burn; got != 0 {
		t.Errorf("burn rate %v after the burst aged out, want 0", got)
	}

	wantPath := []string{"ok→warning", "warning→critical", "critical→warning", "warning→ok"}
	if n := slo.Snapshot().Transitions; n != len(wantPath) {
		t.Fatalf("got %d transitions, want %d", n, len(wantPath))
	}
	if c := reg.Counter("slo_quality_transitions_total").Load(); c != int64(len(wantPath)) {
		t.Errorf("transitions counter %d, want %d", c, len(wantPath))
	}

	// The JSONL sink carries the same ladder, one parseable event per line.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != len(wantPath) {
		t.Fatalf("sink has %d lines, want %d:\n%s", len(lines), len(wantPath), sink.String())
	}
	for i, line := range lines {
		var ev monitor.Transition
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if got := ev.From + "→" + ev.To; got != wantPath[i] {
			t.Errorf("transition %d: %s, want %s", i, got, wantPath[i])
		}
		if ev.SLO != "quality" || ev.Session != "rec 100" {
			t.Errorf("line %d labels: slo=%q session=%q", i, ev.SLO, ev.Session)
		}
		if ev.TimelineNs == 0 || ev.Samples == 0 {
			t.Errorf("line %d missing context: %+v", i, ev)
		}
	}
	if e := slo.Snapshot().SinkError; e != "" {
		t.Errorf("sink error: %s", e)
	}
}

// get performs one request against the test server.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestReadyzFollowsHealth pins the readiness contract: not ready with
// no sessions, not ready while a stream is starting or degraded, ready
// exactly while every live coordinator is keyed and decoding, and
// ready again once the streams have finished.
func TestReadyzFollowsHealth(t *testing.T) {
	srv := monitor.NewServer(telemetry.NewManualClock(0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("no sessions: /readyz %d (%s), want 503", code, body)
	}
	ses := monitor.NewSession(monitor.SessionConfig{Name: "rec 100"}, nil)
	srv.Attach(ses)
	if code, body := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("starting: /readyz %d (%s), want 503", code, body)
	}

	slot := monitor.SlotStatus{Slot: 1, Windows: 1, Health: coordinator.HealthDecoding}
	ses.OnSlot(slot)
	if code, body := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("decoding: /readyz %d (%s), want 200", code, body)
	}

	slot.Health = coordinator.HealthDegraded
	ses.OnSlot(slot)
	code, body := get(t, ts, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded: /readyz %d, want 503", code)
	}
	if !strings.Contains(body, "degraded") {
		t.Errorf("degraded reason missing from body: %s", body)
	}

	slot.Health = coordinator.HealthDecoding
	ses.OnSlot(slot)
	if code, _ := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("recovered: /readyz %d, want 200", code)
	}
	ses.Finish()
	if code, body := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("finished: /readyz %d (%s), want 200", code, body)
	}
	// Liveness never wavers through any of it.
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz %d, want 200", code)
	}
}

// TestEndpointsDuringLossyStream is the acceptance check: all four
// endpoints serve while a burst-lossy NACK-enabled RunStream session is
// in flight, and the final snapshots carry the session's quality and
// transport story.
func TestEndpointsDuringLossyStream(t *testing.T) {
	var sink bytes.Buffer
	reg := telemetry.NewRegistry()
	ses := monitor.NewSession(monitor.SessionConfig{Name: `rec "100"`, Registry: reg}, &sink)
	srv := monitor.NewServer(nil)
	srv.Attach(ses)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lnk := csecg.DefaultLinkConfig()
	lnk.Burst = &csecg.BurstConfig{PGoodBad: 0.08, PBadGood: 0.4}
	lnk.Seed = 0xC0FFEE
	done := make(chan error, 1)
	go func() {
		_, err := csecg.RunStream(csecg.StreamConfig{
			RecordID:  "100",
			Seconds:   16,
			Params:    csecg.Params{Seed: 0x601, M: csecg.MForCR(50, csecg.WindowSize)},
			Link:      lnk,
			Transport: csecg.TransportConfig{NACK: true},
			Metrics:   reg,
			Observer:  ses,
		})
		ses.Finish()
		done <- err
	}()

	// Poll every endpoint until the stream completes; each must serve
	// on every round (readyz may legitimately be 503 mid-burst).
	polls := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("RunStream: %v", err)
			}
		default:
			for _, path := range []string{"/metrics", "/healthz", "/sessions"} {
				if code, body := get(t, ts, path); code != http.StatusOK {
					t.Fatalf("mid-stream GET %s: %d (%s)", path, code, body)
				}
			}
			if code, _ := get(t, ts, "/readyz"); code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Fatalf("mid-stream GET /readyz: %d", code)
			}
			polls++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		break
	}
	if polls == 0 {
		t.Fatal("stream finished before a single poll round")
	}

	// Final /sessions: one entry with the full quality/transport story.
	_, body := get(t, ts, "/sessions")
	var statuses []monitor.SessionStatus
	if err := json.Unmarshal([]byte(body), &statuses); err != nil {
		t.Fatalf("/sessions JSON: %v\n%s", err, body)
	}
	if len(statuses) != 1 {
		t.Fatalf("/sessions has %d entries, want 1", len(statuses))
	}
	st := statuses[0]
	if !st.Finished || st.Windows == 0 || st.MeanEstPRDN <= 0 {
		t.Errorf("final status incomplete: %+v", st)
	}
	if st.Gaps == 0 {
		t.Errorf("burst channel produced no gap episodes: %+v", st)
	}
	if st.Latency.P50Ns <= 0 || st.Latency.P99Ns < st.Latency.P50Ns {
		t.Errorf("latency quantiles inconsistent: %+v", st.Latency)
	}

	// Final /metrics: session-labeled series with the label value
	// escaped, composed with histogram le labels.
	_, metricsBody := get(t, ts, "/metrics")
	for _, want := range []string{
		`quality_windows_total{session="rec \"100\""}`,
		`stream_decode_latency_ns_bucket{session="rec \"100\"",le="`,
		`slo_quality_alert_state{session="rec \"100\""}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Errorf("finished session still gates /readyz")
	}
}

// TestGracefulDrain pins the shutdown contract: BeginDrain flips
// /readyz to 503 immediately, while a scrape already in flight — and
// any straggler the balancer still routes — completes with a full
// body; WaitIdle returns once the wire is quiet.
func TestGracefulDrain(t *testing.T) {
	clk := &telemetry.ManualClock{}
	srv := monitor.NewServer(clk)
	reg := telemetry.NewRegistry()
	reg.Counter("transport_crc_rejected_total").Add(3)
	ses := monitor.NewSession(monitor.SessionConfig{Name: "rec 100", Registry: reg}, nil)
	ses.OnWindow(monitor.WindowStatus{Seq: 1, EstPRDN: 4, Degraded: true,
		Rung: coordinator.RungReducedIter})
	ses.OnSlot(monitor.SlotStatus{Slot: 1, Health: coordinator.HealthDecoding})
	srv.Attach(ses)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.SetRequestHook(func(path string) {
		if path == "/metrics" {
			once.Do(func() { close(entered) })
			<-release
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
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

	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d %s", code, body)
	}

	// A scrape enters and parks on the wire; then the drain begins.
	type result struct {
		code int
		body string
	}
	inflight := make(chan result)
	go func() {
		code, body := get("/metrics")
		inflight <- result{code, body}
	}()
	<-entered
	srv.BeginDrain()

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "draining") {
		t.Fatalf("/readyz during drain: %d %s, want 503 draining", code, body)
	}
	// Stragglers on the data endpoints still drain cleanly.
	if code, body := get("/sessions"); code != http.StatusOK ||
		!strings.Contains(body, "\"degraded_windows\": 1") ||
		!strings.Contains(body, "\"last_rung\": \"reduced-iter\"") {
		t.Fatalf("/sessions during drain: %d %s", code, body)
	}

	close(release)
	res := <-inflight
	if res.code != http.StatusOK || !strings.Contains(res.body, "transport_crc_rejected_total") {
		t.Fatalf("in-flight /metrics after drain: %d %q", res.code, res.body)
	}
	done := make(chan struct{})
	go func() {
		srv.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitIdle did not return after the wire went quiet")
	}
}
