// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V plus the embedded results of Section IV) on the
// substitute database. Each experiment returns both a structured result
// and a rendered text table; cmd/csecg-bench prints them and the
// repository-root benchmarks assert their shapes.
//
// The experiment index (paper figure → function) lives in DESIGN.md §4.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"csecg"
	"csecg/internal/ecg"
	"csecg/internal/telemetry"
)

// Table is a rendered experiment result.
type Table struct {
	// Title identifies the experiment ("Fig. 2 — ...").
	Title string
	// Note carries provenance or interpretation guidance.
	Note string
	// Header and Rows are the aligned text content.
	Header []string
	Rows   [][]string
}

// CSV formats the table as RFC-4180-style CSV (header row first); the
// title and note travel as "#"-prefixed comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "# %s\n", t.Note)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Options tunes how much data the experiments chew through. The defaults
// keep the full suite under a couple of minutes on a laptop; -all mode
// in csecg-bench raises them to the complete database.
type Options struct {
	// Records selects database record IDs (nil → a balanced 8-record
	// subset spanning clean, noisy and ectopy-rich rhythms).
	Records []string
	// SecondsPerRecord of signal per record (0 → 24 s = 12 windows).
	SecondsPerRecord float64
	// Metrics, when non-nil, attaches every streaming session the
	// experiment runs to the registry (csecg-bench -metrics).
	Metrics *csecg.Metrics
	// Trace, when non-nil, collects the causal span trees of every
	// window of every streaming session (csecg-bench -trace/-spans);
	// each session gets its own labeled tracer.
	Trace *Traces
}

// Traces collects every window's span tree across the streaming
// sessions of a run. Each session gets a RetainAll tracer labeled after
// it, so its trace IDs and Chrome tracks stay distinct.
type Traces struct {
	retain  int // trees kept per session
	tracers []*telemetry.CausalTracer
}

// NewTraces builds a collector keeping up to 512 trees per session —
// the longest chaos scenario and every default-length experiment
// session fit.
func NewTraces() *Traces { return &Traces{retain: 512} }

// Session returns a new tracer for one labeled session, or nil when t
// is nil (tracing off).
func (t *Traces) Session(label string) *telemetry.CausalTracer {
	if t == nil {
		return nil
	}
	c := telemetry.NewCausalTracer(telemetry.CausalConfig{
		Label:           label,
		RetainAnomalous: t.retain,
		RetainAll:       true,
	})
	t.tracers = append(t.tracers, c)
	return c
}

// Records returns every session's retained trees in session order.
func (t *Traces) Records() []telemetry.TraceRecord {
	var out []telemetry.TraceRecord
	for _, c := range t.tracers {
		out = append(out, c.Records()...)
	}
	return out
}

// Err reports trees lost to the per-session retention cap: the
// collected trace would silently miss those windows.
func (t *Traces) Err() error {
	var dropped int64
	for _, c := range t.tracers {
		dropped += c.RetainDropped()
	}
	if dropped > 0 {
		return fmt.Errorf("experiments: %d span trees dropped past the cap of %d per session; shorten the run", dropped, t.retain)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if len(o.Records) == 0 {
		o.Records = []string{"100", "103", "105", "119", "200", "208", "221", "232"}
	}
	if o.SecondsPerRecord == 0 {
		o.SecondsPerRecord = 24
	}
	return o
}

// AllRecords returns the IDs of the complete 48-record database.
func AllRecords() []string {
	db := ecg.Database()
	ids := make([]string, len(db))
	for i, r := range db {
		ids[i] = r.ID
	}
	return ids
}

// windows256 renders a record channel at the mote rate and slices it
// into encoder windows. n must be the *resolved* window length (a zero
// from un-defaulted Params would loop forever).
func windows256(id string, seconds float64, n int) ([][]int16, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: window length %d must be positive", n)
	}
	rec, err := ecg.RecordByID(id)
	if err != nil {
		return nil, err
	}
	samples, err := rec.Channel256(seconds, 0)
	if err != nil {
		return nil, err
	}
	var out [][]int16
	for o := 0; o+n <= len(samples); o += n {
		out = append(out, samples[o:o+n])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: record %s too short for one window", id)
	}
	return out, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// forEachRecord runs fn once per record ID on a bounded worker pool and
// returns the per-record results in input order (deterministic
// regardless of scheduling). The first error wins.
func forEachRecord[R any](ids []string, fn func(id string) (R, error)) ([]R, error) {
	out := make([]R, len(ids))
	errs := make([]error, len(ids))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = fn(ids[i])
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
