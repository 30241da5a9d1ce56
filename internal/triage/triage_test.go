package triage

import (
	"strings"
	"testing"
	"time"

	"csecg/internal/chaos"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/session"
	"csecg/internal/telemetry"
)

// trace builds a synthetic record whose depth-1 leaves are given as
// stage/duration pairs; latency is their sum unless overridden.
func trace(seq uint32, rung int, leaves ...any) telemetry.TraceRecord {
	rec := telemetry.TraceRecord{
		TraceID: telemetry.TraceIDString(telemetry.DeriveTraceID(1, seq)),
		Seq:     seq,
		Rung:    rung,
	}
	rec.Spans = append(rec.Spans, telemetry.SpanRecord{Stage: telemetry.StageWindow, Parent: -1, Rung: -1})
	var start int64
	for i := 0; i < len(leaves); i += 2 {
		stage := leaves[i].(string)
		dur := int64(leaves[i+1].(int))
		rec.Spans = append(rec.Spans, telemetry.SpanRecord{
			Stage: stage, Parent: 0, StartNs: start, DurNs: dur, Rung: -1,
		})
		start += dur
		rec.LatencyNs += dur
	}
	rec.Spans[0].DurNs = rec.LatencyNs
	return rec
}

func TestAnalyzeVerdictNamesDominantSolverStage(t *testing.T) {
	// Nine fast windows on rung 0, one slow window on rung 1 whose
	// latency is dominated by the halved-budget FISTA stage — the tail.
	var traces []telemetry.TraceRecord
	for seq := uint32(0); seq < 9; seq++ {
		traces = append(traces, trace(seq, 0,
			telemetry.StageLinkTransit, 20_000_000,
			telemetry.SolverStageFISTA1, 80_000_000,
			telemetry.StageReconstruct, 1_000_000))
	}
	traces = append(traces, trace(9, 1,
		telemetry.StageLinkTransit, 30_000_000,
		telemetry.SolverStageFISTA2, 900_000_000,
		telemetry.StageReconstruct, 1_000_000))

	rep := Analyze(traces, Options{})
	if !rep.Clean {
		t.Fatalf("synthetic traces flagged divergent: %s", rep.Verdict)
	}
	if rep.Windows != 10 {
		t.Errorf("analyzed %d windows, want 10", rep.Windows)
	}
	if rep.DominantStage != telemetry.SolverStageFISTA2 {
		t.Errorf("dominant stage %q, want %q", rep.DominantStage, telemetry.SolverStageFISTA2)
	}
	if rep.DominantRung != 1 {
		t.Errorf("dominant rung %d, want 1", rep.DominantRung)
	}
	if !strings.Contains(rep.Verdict, "p99 dominated by solver stage fista/2 under rung 1") {
		t.Errorf("verdict %q does not name the solver stage and rung", rep.Verdict)
	}
	// The per-rung table must rank each rung's own dominant stage.
	if len(rep.Rungs) != 2 {
		t.Fatalf("got %d rung rows, want 2", len(rep.Rungs))
	}
	if rep.Rungs[0].Dominant != telemetry.SolverStageFISTA1 || rep.Rungs[1].Dominant != telemetry.SolverStageFISTA2 {
		t.Errorf("rung dominants %q/%q, want fista/1 and fista/2",
			rep.Rungs[0].Dominant, rep.Rungs[1].Dominant)
	}
}

func TestAnalyzeFlagsTilingDivergence(t *testing.T) {
	good := trace(0, 0, telemetry.SolverStageFISTA1, 100_000_000)
	bad := trace(1, 0, telemetry.SolverStageFISTA1, 100_000_000)
	bad.LatencyNs = 150_000_000 // 50% of the latency unaccounted for
	bad.Spans[0].DurNs = bad.LatencyNs

	rep := Analyze([]telemetry.TraceRecord{good, bad}, Options{})
	if rep.Clean {
		t.Fatal("report clean despite a 50% tiling gap")
	}
	if rep.DivergentCount != 1 || len(rep.Divergent) != 1 {
		t.Fatalf("divergent count %d (listed %d), want 1", rep.DivergentCount, len(rep.Divergent))
	}
	if rep.Divergent[0].Seq != 1 {
		t.Errorf("flagged seq %d, want 1", rep.Divergent[0].Seq)
	}
	if rep.WorstDivergence < 0.3 {
		t.Errorf("worst divergence %.3f, want ≈ 1/3", rep.WorstDivergence)
	}
	if !strings.Contains(rep.Verdict, "ATTRIBUTION SUSPECT") {
		t.Errorf("verdict %q does not flag suspect attribution", rep.Verdict)
	}
	// A looser tolerance accepts the same traces.
	if rep := Analyze([]telemetry.TraceRecord{good, bad}, Options{MaxDivergence: 0.5}); !rep.Clean {
		t.Error("divergence below the configured tolerance still flagged")
	}
}

func TestAnalyzeExcludesShed(t *testing.T) {
	decoded := trace(0, 0, telemetry.SolverStageFISTA1, 100_000_000)
	shed := trace(1, 0, telemetry.StageTX, 20_000_000)
	shed.LatencyNs = 0
	shed.Spans[0].DurNs = 0
	shed.Flags = []string{"shed"}

	rep := Analyze([]telemetry.TraceRecord{decoded, shed}, Options{})
	if rep.Windows != 1 || rep.Shed != 1 {
		t.Errorf("windows %d shed %d, want 1 and 1", rep.Windows, rep.Shed)
	}
	if !rep.Clean {
		t.Error("shed trace must not trip the tiling check")
	}
}

// TestSolverStageNamesPinned ties the coordinator's ladder to the
// telemetry stage vocabulary both ways: every rung's solver-stage name
// must be a member of the closed histogram stage set, or its latency
// contribution would silently vanish from csecg_window_stage_seconds,
// and every solver stage triage knows must name a rung.
func TestSolverStageNamesPinned(t *testing.T) {
	known := map[string]bool{}
	for _, s := range telemetry.SpanStages() {
		known[s] = true
	}
	rungStages := map[string]bool{}
	for r := coordinator.RungNominal; r <= coordinator.RungBestEffort; r++ {
		name := r.SolverStage()
		if !known[name] {
			t.Errorf("rung %d solver stage %q missing from telemetry.SpanStages()", r, name)
		}
		if rungStages[name] {
			t.Errorf("rung %d repeats solver stage %q", r, name)
		}
		rungStages[name] = true
	}
	for name := range solverStages {
		if !rungStages[name] {
			t.Errorf("solver stage %q names no rung", name)
		}
	}
}

// TestSlowdownAttributionNamesSolver is the chaos-matrix truthfulness
// assertion: under an injected 2× solver slowdown with paced arrival,
// the report must attribute the tail to a solver stage — not to the
// reassemble wait for the serialized decode core, which a lazier span
// model would blame because slow solves and queueing are correlated.
func TestSlowdownAttributionNamesSolver(t *testing.T) {
	spans := telemetry.NewCausalTracer(telemetry.CausalConfig{
		Label:           "chaos slowdown-paced",
		RetainAnomalous: 512,
		RetainAll:       true,
	})
	rep, err := chaos.Run(chaos.Scenario{
		Name:   "slowdown-paced",
		Faults: session.Faults{Slowdown: 2},
		Spans:  spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decoded == 0 {
		t.Fatal("slowdown scenario decoded nothing")
	}

	report := Analyze(spans.Records(), Options{})
	if !report.Clean {
		t.Fatalf("attribution suspect under slowdown: %s", report.Verdict)
	}
	if !solverStages[report.DominantStage] {
		t.Errorf("p99 dominated by %q, want a solver stage (slowdown must not masquerade as %s)",
			report.DominantStage, telemetry.StageReassemble)
	}
	if report.DominantStage == telemetry.StageReassemble {
		t.Error("slowdown misattributed to queueing")
	}
	if !strings.Contains(report.Verdict, "solver stage") {
		t.Errorf("verdict %q does not name a solver stage", report.Verdict)
	}
}

// TestTilingCheckCatchesCloseStepGap: the shared close step takes a
// window's latency from the timeline (decode end − acquisition end),
// not from the leaves, so a caller whose wait leaves stop 1 ns short of
// the decode start fails the tiling check.
func TestTilingCheckCatchesCloseStepGap(t *testing.T) {
	const acqEnd, start = 2_000_000_000, 2_050_000_000
	for _, gap := range []int64{0, 1} {
		spans := telemetry.NewCausalTracer(telemetry.CausalConfig{Label: "gap", RetainAll: true})
		closer := coordinator.NewSpanCloser(spans, coordinator.NewReceiver(nil, coordinator.TransportConfig{}), 300_000)
		wt := spans.Begin(3)
		wt.Root(acqEnd)
		wt.Leaf(telemetry.StageLinkTransit, acqEnd, start-acqEnd-gap)
		res := &coordinator.Result{DecodeResult: &core.DecodeResult[float32]{}, ModeledTime: 40 * time.Millisecond}
		closer.Close(wt, coordinator.Decoded{Seq: 3, Res: res}, start)

		rep := Analyze(spans.Records(), Options{MaxDivergence: 1e-12})
		if gap == 0 {
			if !rep.Clean {
				t.Fatalf("gapless tree fails the tiling check: %s", rep.Verdict)
			}
			continue
		}
		if rep.Clean || rep.DivergentCount != 1 {
			t.Fatalf("1 ns gap passed the tiling check: %s", rep.Verdict)
		}
		if d := rep.Divergent[0]; d.LatencyNs-d.LeafSumNs != gap {
			t.Errorf("divergent trace: latency %d, leaf sum %d, want a %d ns gap", d.LatencyNs, d.LeafSumNs, gap)
		}
		if !strings.Contains(rep.Verdict, "ATTRIBUTION SUSPECT") {
			t.Errorf("verdict %q does not flag the divergence", rep.Verdict)
		}
	}
}
