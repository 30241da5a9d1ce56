package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRecords builds the span trees the Chrome exporter must render:
// the retransmitted, degraded window of span_test.go carrying three
// solver iteration points, and a clean sub-microsecond-precision window
// of a second session.
func fixtureRecords() []TraceRecord {
	c := NewCausalTracer(CausalConfig{Label: "record 100", RetainAll: true})
	w := buildRetransmittedDegradedTrace(c)
	for i, at := range []int64{8_100_000_000, 8_500_000_000, 8_800_000_000} {
		w.Iteration(IterPoint{AtNs: at, Objective: 4 / float64(i+1), Residual: 0.125 / float64(i+1), Step: 0.5})
	}
	c.Finish(w, 1, w.LeafSumNs())

	d := NewCausalTracer(CausalConfig{Label: "record 101", RetainAll: true})
	v := d.Begin(0)
	v.Root(2_000_000_000)
	v.Leaf(StageCSSample, 2_000_000_000, 82_000_000)
	v.Leaf(StageDiff, 2_082_000_000, 250)
	v.Leaf(StageHuffman, 2_082_000_250, 517_250)
	v.Leaf(StageTX, 2_082_517_500, 19_288_888)
	v.Leaf(StageLinkTransit, 2_101_806_388, 3_612)
	v.Leaf(StageReassemble, 2_101_810_000, 0)
	v.SolverLeaf(SolverStageFISTA1, 2_101_810_000, 343_000_000, 0)
	v.Leaf(StageReconstruct, 2_444_810_000, 1_000_000)
	d.Finish(v, 0, v.LeafSumNs())
	return append(c.Records(), d.Records()...)
}

// chromeEvent is the subset of a trace_event the tests inspect.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	ID   string         `json:"id"`
	BP   string         `json:"bp"`
	Args map[string]any `json:"args"`
}

// renderChrome renders the fixture and parses it back.
func renderChrome(t *testing.T) (string, []chromeEvent) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixtureRecords()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	return buf.String(), doc.TraceEvents
}

func TestWriteChromeTraceGolden(t *testing.T) {
	out, _ := renderChrome(t)
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if out != string(want) {
		t.Errorf("Chrome trace output drifted from golden file.\ngot:  %s\nwant: %s", out, want)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	out, events := renderChrome(t)
	// Nanosecond ticks must render as microseconds with the remainder
	// kept: 517250 ns → 517.250 µs.
	for _, frag := range []string{
		`"displayTimeUnit":"ms"`,
		`"dur":517.250`,
		`"name":"record 100 — mote"`,
		`"name":"record 101 — coordinator"`,
		`"args":{"seq":1,"attempt":2}`,
		`"args":{"seq":1,"rung":1,"flags":"degraded,retransmit,rung-change"}`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace output missing %s", frag)
		}
	}
	// Each session owns three processes; each window draws its solver
	// counter tracks on its coordinator process.
	counters := map[string]int{}
	for _, e := range events {
		if e.Ph == "C" {
			if e.PID != 3 {
				t.Errorf("counter %q on pid %d, want the coordinator (3)", e.Name, e.PID)
			}
			counters[e.Name]++
		}
		if e.Ph == "X" && e.Dur < 0 {
			t.Errorf("slice %q has negative duration", e.Name)
		}
	}
	for _, name := range []string{"fista objective", "fista residual", "fista step"} {
		if counters[name] != 3 {
			t.Errorf("counter track %q has %d points, want 3", name, counters[name])
		}
	}
}

func TestWriteChromeTraceNestedAndFlow(t *testing.T) {
	_, events := renderChrome(t)
	recs := fixtureRecords()
	// B/E pairs must balance and nest per (pid, tid) lane, closing in
	// time order.
	type lane struct{ pid, tid int64 }
	open := map[lane][]chromeEvent{}
	nested := 0
	for _, e := range events {
		k := lane{e.PID, e.TID}
		switch e.Ph {
		case "B":
			if len(open[k]) > 0 {
				nested++
			}
			open[k] = append(open[k], e)
		case "E":
			st := open[k]
			if len(st) == 0 {
				t.Fatalf("E %q on pid %d tid %d closes nothing", e.Name, e.PID, e.TID)
			}
			if b := st[len(st)-1]; b.Name != e.Name || e.TS < b.TS {
				t.Fatalf("E %q at %.3f closes B %q at %.3f", e.Name, e.TS, b.Name, b.TS)
			}
			open[k] = st[:len(st)-1]
		}
	}
	for k, st := range open {
		if len(st) > 0 {
			t.Errorf("lane %v leaves %d B events open", k, len(st))
		}
	}
	if nested != 2 {
		t.Errorf("%d nested continuation slices, want 2 (stage/0, stage/1)", nested)
	}
	// Each decoded window draws one flow arrow keyed by its trace ID:
	// start on encode, a step per transmission, the end bound to the
	// enclosing solve slice with bp:e.
	phases := map[string]string{}
	for _, e := range events {
		switch e.Ph {
		case "s", "t", "f":
			phases[e.ID] += e.Ph
			if e.Ph == "f" && e.BP != "e" {
				t.Errorf("flow end of %s has bp %q, want e", e.ID, e.BP)
			}
		}
	}
	want := map[string]string{recs[0].TraceID: "stttf", recs[1].TraceID: "stf"}
	if !reflect.DeepEqual(phases, want) {
		t.Errorf("flow phases by trace ID = %v, want %v", phases, want)
	}
}

// TestJSONLRoundTrip pins the trace-record JSONL interchange, including
// the solver iteration points behind the Chrome counter tracks.
func TestJSONLRoundTrip(t *testing.T) {
	recs := fixtureRecords()
	var buf bytes.Buffer
	if err := WriteTraceRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("JSONL round trip changed records:\ngot  %+v\nwant %+v", got, recs)
	}
	if len(got[0].Iter) != 3 || len(got[1].Iter) != 0 {
		t.Errorf("iteration points %d/%d, want 3/0", len(got[0].Iter), len(got[1].Iter))
	}
}

func TestReadTraceRecordsBadLine(t *testing.T) {
	_, err := ReadTraceRecords(strings.NewReader("{\"trace_id\":\"01\",\"seq\":0,\"spans\":[]}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-numbered parse error, got %v", err)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("windows_total").Add(3)
	reg.Gauge("depth").Set(2)
	h := reg.Histogram("latency_ns")
	h.Observe(5)
	h.Observe(900)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# TYPE windows_total counter",
		"windows_total 3",
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE latency_ns histogram",
		`latency_ns_bucket{le="+Inf"} 2`,
		"latency_ns_sum 905",
		"latency_ns_count 2",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Prometheus output missing %q\n%s", frag, out)
		}
	}
	// le buckets must be cumulative: the bucket covering 900 (le="1023")
	// includes the earlier observation of 5.
	if !strings.Contains(out, `le="1023"} 2`) {
		t.Errorf("buckets not cumulative:\n%s", out)
	}
}
