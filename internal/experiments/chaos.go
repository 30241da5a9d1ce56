package experiments

import (
	"fmt"
	"time"

	"csecg/internal/blackbox"
	"csecg/internal/chaos"
)

// ChaosRow is one scenario's survival outcome.
type ChaosRow struct {
	Report *chaos.Report
	// Violation is empty when the scenario was survived, else the
	// first contract breach.
	Violation string
	// Bundles lists the diagnostics bundles the scenario sealed (only
	// with recording enabled).
	Bundles []string
}

// ChaosResult is the survival-layer acceptance matrix: every fault
// cocktail the coordinator must degrade through without dying.
type ChaosResult struct {
	Short bool
	Rows  []ChaosRow
}

// Failures lists the scenarios that broke the survival contract.
func (r *ChaosResult) Failures() []string {
	var out []string
	for _, row := range r.Rows {
		if row.Violation != "" {
			out = append(out, row.Violation)
		}
	}
	return out
}

// Chaos runs the survival matrix — bit flips, burst loss, mote reboot,
// CPU slowdown under burst arrival, decode panics, clock drift, and
// the kitchen sink — and judges each run on the contract: zero escaped
// panics, bounded queue, p99 decode within the packet period, health
// back to decoding. Short mode shrinks the sessions for CI smoke.
//
// When recordDir is non-empty every scenario records its session with
// the black-box flight recorder, a contract violation seals a
// diagnostics bundle naming the breach, and scenarios that triggered
// nothing seal one end-of-run bundle anyway — so a chaos run always
// leaves replayable evidence behind. When traces is non-nil every
// scenario's span trees are collected into it — csecg-triage's input
// behind `make triage-smoke`.
func Chaos(short bool, recordDir string, traces *Traces) (*ChaosResult, error) {
	res := &ChaosResult{Short: short}
	for _, sc := range chaos.Matrix(short) {
		if recordDir != "" {
			sc.Record = &blackbox.Config{Sink: blackbox.DirSink(recordDir)}
		}
		sc.Spans = traces.Session("chaos " + sc.Name)
		rep, err := chaos.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos scenario %s: %w", sc.Name, err)
		}
		row := ChaosRow{Report: rep}
		if err := rep.Survived(); err != nil {
			row.Violation = err.Error()
			if rep.Recorder != nil {
				//csecg:errok the seal error is retained in the recorder
				rep.Recorder.SealNow(blackbox.TriggerChaosViolation, err.Error())
			}
		}
		if rep.Recorder != nil {
			if len(rep.Recorder.Bundles()) == 0 {
				//csecg:errok the seal error is retained in the recorder
				rep.Recorder.SealNow(blackbox.TriggerManual, "end-of-scenario capture")
			}
			row.Bundles = rep.Recorder.Bundles()
			if err := rep.Recorder.SealErr(); err != nil {
				return nil, fmt.Errorf("experiments: chaos scenario %s: sealing bundle: %w", sc.Name, err)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the matrix.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: "Extension — chaos matrix: coordinator survival under faults",
		Note:  "contract: zero escaped panics, bounded queue, p99 decode within the packet period, health back to decoding",
		Header: []string{"scenario", "windows", "decoded", "degraded", "crc-rej",
			"shed", "q-peak", "panics", "reboots", "p99 (ms)", "max rung", "health", "verdict"},
	}
	for _, row := range r.Rows {
		rep := row.Report
		verdict := "survived"
		if row.Violation != "" {
			verdict = "FAILED"
		}
		t.Rows = append(t.Rows, []string{
			rep.Scenario,
			fmt.Sprintf("%d", rep.Windows),
			fmt.Sprintf("%d", rep.Decoded),
			fmt.Sprintf("%d", rep.DegradedWindows),
			fmt.Sprintf("%d", rep.CRCRejected),
			fmt.Sprintf("%d", rep.Shed),
			fmt.Sprintf("%d/%d", rep.Transport.QueuePeak, rep.QueueLimit),
			fmt.Sprintf("%d", rep.Transport.DecodePanics),
			fmt.Sprintf("%d", rep.Transport.Reboots),
			f1(float64(rep.P99DecodeTime) / float64(time.Millisecond)),
			rep.MaxRung.String(),
			rep.FinalHealth.String(),
			verdict,
		})
	}
	return t
}
