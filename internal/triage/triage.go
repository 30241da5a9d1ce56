// Package triage turns causal span traces into a critical-path latency
// report: per-stage p50/p95/p99 contribution to window decode latency,
// dominant-stage ranking per degradation rung, a tiling-integrity check
// (depth-1 span durations must sum to the recorded end-to-end latency),
// and a one-line verdict naming what the p99 tail is dominated by —
// e.g. "p99 dominated by solver stage fista/2 under rung 1".
//
// The input is the trace JSONL a CausalTracer retains (csecg-bench
// -spans, csecg-monitor -spans-out) or a diagnostics bundle sealed by
// the flight recorder. A bundle carries per-window decode summaries but
// no span trees, so bundle analysis is honestly scoped to the
// decode-side stages and performs no tiling check.
package triage

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/telemetry"
)

// DefaultMaxDivergence is the tiling-integrity tolerance: the relative
// gap allowed between a trace's depth-1 leaf sum and its recorded
// end-to-end latency.
const DefaultMaxDivergence = 0.01

// Options tunes an analysis.
type Options struct {
	// MaxDivergence overrides DefaultMaxDivergence (0 = default).
	MaxDivergence float64
}

// StageStat is one depth-1 stage's contribution distribution across
// the analyzed traces.
type StageStat struct {
	Stage string `json:"stage"`
	// Count is the number of traces the stage appears in; a stage's
	// contribution within one trace is the sum of its leaves there
	// (retransmit attempts aggregate).
	Count int   `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	// TotalNs is the stage's summed contribution across every trace;
	// Share is TotalNs over the summed end-to-end latency.
	TotalNs int64   `json:"total_ns"`
	Share   float64 `json:"share"`
}

// RungStat ranks the dominant stage within one degradation rung.
type RungStat struct {
	Rung     int    `json:"rung"`
	RungName string `json:"rung_name"`
	Windows  int    `json:"windows"`
	// Dominant is the stage with the largest summed contribution among
	// this rung's traces, and DominantShare its fraction of the rung's
	// summed latency.
	Dominant      string  `json:"dominant_stage"`
	DominantShare float64 `json:"dominant_share"`
	P99LatencyNs  int64   `json:"p99_latency_ns"`
}

// DivergentTrace is one trace whose leaves fail to tile its latency.
type DivergentTrace struct {
	TraceID    string  `json:"trace_id"`
	Session    string  `json:"session,omitempty"`
	Seq        uint32  `json:"seq"`
	LatencyNs  int64   `json:"latency_ns"`
	LeafSumNs  int64   `json:"leaf_sum_ns"`
	Divergence float64 `json:"divergence"`
}

// Report is the critical-path analysis result.
type Report struct {
	// Source says what was analyzed: "traces" or "bundle".
	Source string `json:"source"`
	// Windows counts analyzed traces; Shed the shed windows excluded
	// from latency attribution (they never decoded).
	Windows int `json:"windows"`
	Shed    int `json:"shed,omitempty"`

	// Stages is the per-stage contribution table, largest total first.
	Stages []StageStat `json:"stages"`
	// Rungs is the per-rung dominant-stage ranking, rung order.
	Rungs []RungStat `json:"rungs"`

	// P99LatencyNs is the end-to-end p99; DominantStage the stage
	// contributing most within the p99 tail (traces at or above the
	// p99), DominantShare its fraction of the tail's latency, and
	// DominantRung the most common rung among the tail's traces.
	P99LatencyNs  int64   `json:"p99_latency_ns"`
	DominantStage string  `json:"dominant_stage"`
	DominantShare float64 `json:"dominant_share"`
	DominantRung  int     `json:"dominant_rung"`

	// Verdict is the one-line human summary.
	Verdict string `json:"verdict"`

	// Divergent lists traces failing the tiling-integrity check (first
	// few), DivergentCount the full count, WorstDivergence the largest
	// observed relative gap, and Clean whether attribution is trusted.
	Divergent       []DivergentTrace `json:"divergent,omitempty"`
	DivergentCount  int              `json:"divergent_count"`
	WorstDivergence float64          `json:"worst_divergence"`
	Clean           bool             `json:"clean"`
}

// solverStages is the closed set of solver-leaf names.
var solverStages = map[string]bool{
	telemetry.SolverStageFISTA1: true,
	telemetry.SolverStageFISTA2: true,
	telemetry.SolverStageGPSR2:  true,
	telemetry.SolverStageGPSR4:  true,
}

// describeStage spells a stage for the verdict ("solver stage fista/2"
// vs "reassemble").
func describeStage(stage string) string {
	if solverStages[stage] {
		return "solver stage " + stage
	}
	return stage
}

// percentile returns the q-th percentile of sorted (ascending) values
// using the chaos harness's nearest-rank convention.
func percentile(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*q + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// hasFlag reports whether a trace record carries the named flag.
func hasFlag(t *telemetry.TraceRecord, name string) bool {
	for _, f := range t.Flags {
		if f == name {
			return true
		}
	}
	return false
}

// stageContribs aggregates one trace's depth-1 leaves by stage
// (rung-change markers are zero-duration and excluded).
func stageContribs(t *telemetry.TraceRecord) map[string]int64 {
	m := make(map[string]int64, 8)
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Parent != 0 || s.Stage == telemetry.StageRungChange {
			continue
		}
		m[s.Stage] += s.DurNs
	}
	return m
}

// Analyze runs the critical-path analysis over trace JSONL records.
func Analyze(traces []telemetry.TraceRecord, opts Options) *Report {
	maxDiv := opts.MaxDivergence
	if maxDiv <= 0 {
		maxDiv = DefaultMaxDivergence
	}
	rep := &Report{Source: "traces", Clean: true}

	type window struct {
		rec     *telemetry.TraceRecord
		contrib map[string]int64
	}
	var wins []window
	for i := range traces {
		t := &traces[i]
		if hasFlag(t, "shed") || t.LatencyNs <= 0 {
			rep.Shed++
			continue
		}
		wins = append(wins, window{rec: t, contrib: stageContribs(t)})
	}
	rep.Windows = len(wins)
	if len(wins) == 0 {
		rep.Verdict = "no decoded traces to analyze"
		return rep
	}

	// Tiling integrity: every decoded window's depth-1 leaves must sum
	// to its recorded end-to-end latency.
	for _, w := range wins {
		var sum int64
		//csecg:orderok sum reduction, independent of iteration order
		for _, d := range w.contrib {
			sum += d
		}
		gap := sum - w.rec.LatencyNs
		if gap < 0 {
			gap = -gap
		}
		div := float64(gap) / float64(w.rec.LatencyNs)
		if div > rep.WorstDivergence {
			rep.WorstDivergence = div
		}
		if div > maxDiv {
			rep.DivergentCount++
			if len(rep.Divergent) < 8 {
				rep.Divergent = append(rep.Divergent, DivergentTrace{
					TraceID: w.rec.TraceID, Session: w.rec.Session, Seq: w.rec.Seq,
					LatencyNs: w.rec.LatencyNs, LeafSumNs: sum, Divergence: div,
				})
			}
		}
	}
	rep.Clean = rep.DivergentCount == 0

	// Per-stage contribution distributions and overall shares.
	perStage := map[string][]int64{}
	var totalLatency int64
	for _, w := range wins {
		totalLatency += w.rec.LatencyNs
		//csecg:orderok each pair lands under its own key; window order fixes slice order
		for stage, d := range w.contrib {
			perStage[stage] = append(perStage[stage], d)
		}
	}
	rep.Stages = stageTable(perStage, totalLatency)

	// Per-rung dominant-stage ranking.
	byRung := map[int][]window{}
	for _, w := range wins {
		byRung[w.rec.Rung] = append(byRung[w.rec.Rung], w)
	}
	for _, r := range sortedRungs(byRung) {
		group := byRung[r]
		stageTotal := map[string]int64{}
		var lats []int64
		var groupLatency int64
		for _, w := range group {
			lats = append(lats, w.rec.LatencyNs)
			groupLatency += w.rec.LatencyNs
			//csecg:orderok sum reduction, independent of iteration order
			for stage, d := range w.contrib {
				stageTotal[stage] += d
			}
		}
		slices.Sort(lats)
		dom, domNs := rankDominant(stageTotal)
		rs := RungStat{
			Rung: r, RungName: coordinator.Rung(r).String(), Windows: len(group),
			Dominant: dom, P99LatencyNs: percentile(lats, 99),
		}
		if groupLatency > 0 {
			rs.DominantShare = float64(domNs) / float64(groupLatency)
		}
		rep.Rungs = append(rep.Rungs, rs)
	}

	// The p99 tail: traces at or above the end-to-end p99 latency.
	var allLats []int64
	for _, w := range wins {
		allLats = append(allLats, w.rec.LatencyNs)
	}
	slices.Sort(allLats)
	rep.P99LatencyNs = percentile(allLats, 99)
	tailStage := map[string]int64{}
	rungCount := map[int]int{}
	var tailLatency int64
	for _, w := range wins {
		if w.rec.LatencyNs < rep.P99LatencyNs {
			continue
		}
		tailLatency += w.rec.LatencyNs
		rungCount[w.rec.Rung]++
		//csecg:orderok sum reduction, independent of iteration order
		for stage, d := range w.contrib {
			tailStage[stage] += d
		}
	}
	domStage, domNs := rankDominant(tailStage)
	rep.DominantStage = domStage
	if tailLatency > 0 {
		rep.DominantShare = float64(domNs) / float64(tailLatency)
	}
	rep.DominantRung = dominantRung(rungCount)

	rep.Verdict = fmt.Sprintf("p99 dominated by %s under rung %d (%s, %.0f%% of tail latency)",
		describeStage(rep.DominantStage), rep.DominantRung,
		coordinator.Rung(rep.DominantRung).String(), 100*rep.DominantShare)
	if !rep.Clean {
		rep.Verdict += fmt.Sprintf("; ATTRIBUTION SUSPECT: %d/%d traces fail tiling (worst %.1f%%)",
			rep.DivergentCount, rep.Windows, 100*rep.WorstDivergence)
	}
	return rep
}

// stageTable builds the per-stage table from each stage's contributions
// (sorted in place), with shares of total, largest total first and ties
// by name.
func stageTable(perStage map[string][]int64, total int64) []StageStat {
	var stages []StageStat
	//csecg:orderok the table is fully sorted (total, then name) below
	for stage, vals := range perStage {
		slices.Sort(vals)
		var sum int64
		for _, v := range vals {
			sum += v
		}
		st := StageStat{
			Stage: stage, Count: len(vals),
			P50Ns: percentile(vals, 50), P95Ns: percentile(vals, 95), P99Ns: percentile(vals, 99),
			TotalNs: sum,
		}
		if total > 0 {
			st.Share = float64(sum) / float64(total)
		}
		stages = append(stages, st)
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].TotalNs != stages[j].TotalNs {
			return stages[i].TotalNs > stages[j].TotalNs
		}
		return stages[i].Stage < stages[j].Stage
	})
	return stages
}

// sortedRungs returns the rungs keyed in m, ascending.
func sortedRungs[V any](m map[int]V) []int {
	var rungs []int
	//csecg:orderok keys are sorted immediately below
	for r := range m {
		rungs = append(rungs, r)
	}
	sort.Ints(rungs)
	return rungs
}

// dominantRung returns the rung with the most windows, the lowest one
// on a tie.
func dominantRung(count map[int]int) int {
	best, rung := -1, 0
	//csecg:orderok max reduction with a lowest-rung tie-break; order-independent
	for r, c := range count {
		if c > best || (c == best && r < rung) {
			best, rung = c, r
		}
	}
	return rung
}

// rankDominant returns the stage with the largest total (ties broken
// lexicographically for determinism).
func rankDominant(totals map[string]int64) (string, int64) {
	var stages []string
	//csecg:orderok keys are sorted immediately below
	for s := range totals {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	var dom string
	var domNs int64 = -1
	for _, s := range stages {
		if totals[s] > domNs {
			dom, domNs = s, totals[s]
		}
	}
	if domNs < 0 {
		return "", 0
	}
	return dom, domNs
}

// AnalyzeBundle runs the decode-side analysis over a diagnostics
// bundle. Bundles record per-window solver summaries (ModeledNs, rung,
// trace ID) but no span trees, so the report covers only the solver
// stages and skips the tiling check.
func AnalyzeBundle(b *blackbox.Bundle) *Report {
	rep := &Report{Source: "bundle", Clean: true}
	rep.Windows = len(b.Windows)
	if rep.Windows == 0 {
		rep.Verdict = "bundle records no decoded windows"
		return rep
	}

	perStage := map[string][]int64{}
	byRung := map[int][]int64{}
	rungCount := map[int]int{}
	var total int64
	for i := range b.Windows {
		w := &b.Windows[i]
		stage := w.Rung.SolverStage()
		perStage[stage] = append(perStage[stage], w.ModeledNs)
		byRung[int(w.Rung)] = append(byRung[int(w.Rung)], w.ModeledNs)
		rungCount[int(w.Rung)]++
		total += w.ModeledNs
	}
	rep.Stages = stageTable(perStage, total)

	for _, r := range sortedRungs(byRung) {
		vals := byRung[r]
		slices.Sort(vals)
		rep.Rungs = append(rep.Rungs, RungStat{
			Rung: r, RungName: coordinator.Rung(r).String(), Windows: len(vals),
			Dominant: coordinator.Rung(r).SolverStage(), DominantShare: 1,
			P99LatencyNs: percentile(vals, 99),
		})
	}

	var allNs []int64
	//csecg:orderok values are sorted immediately below
	for _, vals := range byRung {
		allNs = append(allNs, vals...)
	}
	slices.Sort(allNs)
	rep.P99LatencyNs = percentile(allNs, 99)
	rep.DominantRung = dominantRung(rungCount)
	rep.DominantStage = coordinator.Rung(rep.DominantRung).SolverStage()
	rep.DominantShare = 1
	rep.Verdict = fmt.Sprintf("decode-side only (bundle carries no span trees): p99 solver time %.1f ms, mostly %s under rung %d (%s)",
		float64(rep.P99LatencyNs)/1e6, describeStage(rep.DominantStage),
		rep.DominantRung, coordinator.Rung(rep.DominantRung).String())
	return rep
}

// Render formats the report as a human-readable text block.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical-path latency attribution (%s, %d windows", r.Source, r.Windows)
	if r.Shed > 0 {
		fmt.Fprintf(&b, ", %d shed", r.Shed)
	}
	b.WriteString(")\n\n")
	if r.Windows == 0 {
		b.WriteString(r.Verdict + "\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %12s %7s\n", "stage", "windows", "p50 (ms)", "p95 (ms)", "p99 (ms)", "share")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-16s %8d %12.3f %12.3f %12.3f %6.1f%%\n",
			s.Stage, s.Count, float64(s.P50Ns)/1e6, float64(s.P95Ns)/1e6, float64(s.P99Ns)/1e6, 100*s.Share)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-6s %-14s %8s %-16s %7s %12s\n", "rung", "name", "windows", "dominant", "share", "p99 (ms)")
	for _, rs := range r.Rungs {
		fmt.Fprintf(&b, "%-6d %-14s %8d %-16s %6.1f%% %12.3f\n",
			rs.Rung, rs.RungName, rs.Windows, rs.Dominant, 100*rs.DominantShare, float64(rs.P99LatencyNs)/1e6)
	}
	b.WriteString("\n")
	if r.DivergentCount > 0 {
		fmt.Fprintf(&b, "tiling check: %d/%d traces diverge past tolerance (worst %.2f%%)\n",
			r.DivergentCount, r.Windows, 100*r.WorstDivergence)
		for _, d := range r.Divergent {
			fmt.Fprintf(&b, "  trace %s seq %d: leaves sum %.3f ms vs latency %.3f ms (%.2f%%)\n",
				d.TraceID, d.Seq, float64(d.LeafSumNs)/1e6, float64(d.LatencyNs)/1e6, 100*d.Divergence)
		}
	} else if r.Source == "traces" {
		fmt.Fprintf(&b, "tiling check: all %d traces sum to their recorded latency (worst gap %.3f%%)\n",
			r.Windows, 100*r.WorstDivergence)
	}
	b.WriteString("\nverdict: " + r.Verdict + "\n")
	return b.String()
}
