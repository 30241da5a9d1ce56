// Deterministic bundle replay: feed a bundle's raw frames back through
// the real transport.Receiver and solver stack and diff the per-window
// decode results against the recorded summaries.
//
// The determinism contract has two tiers:
//
//   - Complete bundles (the frame ring never evicted and the size cap
//     never truncated) carry every frame since session start. Replay
//     rebuilds the decoder from the recorded metadata, re-runs the
//     stream on the same slot grid, scripts the recorded decode
//     failures by attempt ordinal (a contained panic is injected
//     upstream of the decoder, so skipping the inner decode reproduces
//     it exactly), and demands bit-for-bit equality on every recorded
//     field — rung, iterations, residual norm, EstPRDN, modeled time.
//
//   - Wrapped bundles start mid-stream: the degradation ladder's rung,
//     the transport gap-rate ring that feeds EstPRDN, and the decoder's
//     cross-window state (difference frames decode against the previous
//     window) depend on history the bundle no longer holds. Replay
//     resumes the receiver at the first recorded frame, aligns windows
//     by sequence number, and on windows where the replayed ladder rung
//     matches the recorded one demands the entropy-decode observables
//     (escape count) and convergence verdict bit-for-bit and the final
//     residual within a 5 % relative tolerance — the re-seeded warm
//     start perturbs the solve trajectory, so iteration counts and the
//     residual's low bits are not reproducible from a partial stream.
//     The rest are counted, not failed.
//
// Either way a session flagged unreproducible (solver costs perturbed
// mid-run) is skipped, not diffed — the frames alone cannot reproduce
// it and a false divergence is worse than an honest refusal.

package blackbox

import (
	"fmt"
	"math"
	"strconv"

	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/telemetry"
)

// scriptedDecoder forces the recorded decode failures at their original
// attempt ordinals. A recorded panic is reproduced without touching the
// inner decoder (the original panic fired upstream of it, leaving its
// state unchanged); a recorded plain failure lets the inner decoder run
// and verifies it still fails.
type scriptedDecoder struct {
	inner    coordinator.Decoder
	fail     map[int64]bool // attempt ordinal → panicked
	calls    int64
	unforced []int64 // ordinals whose recorded failure did not reproduce
}

func (s *scriptedDecoder) Decode(pkt *core.Packet) (*coordinator.Result, error) {
	ord := s.calls
	s.calls++
	panicked, scripted := s.fail[ord]
	if scripted && panicked {
		return nil, fmt.Errorf("blackbox: replaying contained panic at decode ordinal %d", ord)
	}
	res, err := s.inner.Decode(pkt)
	if scripted && err == nil {
		s.unforced = append(s.unforced, ord)
		return nil, fmt.Errorf("blackbox: recorded failure at decode ordinal %d did not reproduce", ord)
	}
	return res, err
}

func (s *scriptedDecoder) Params() core.Params { return s.inner.Params() }

// Divergence is one field where replay disagreed with the record.
type Divergence struct {
	Ordinal int64  `json:"ordinal"`
	Seq     uint32 `json:"seq"`
	Field   string `json:"field"`
	Want    string `json:"want"`
	Got     string `json:"got"`
}

// ReplayReport is the outcome of one bundle replay.
type ReplayReport struct {
	Session string `json:"session"`
	Cause   string `json:"cause"`
	// Complete selects the bit-exact tier of the determinism contract.
	Complete bool `json:"complete"`
	// Skipped marks a bundle replay refused to diff (unreproducible
	// session); SkipReason says why.
	Skipped    bool   `json:"skipped,omitempty"`
	SkipReason string `json:"skip_reason,omitempty"`
	// Windows is the recorded window count; Compared how many were
	// diffed; Missing how many the replay never produced (a failure in
	// complete mode); NotReplayed / RungSkipped count wrapped-mode
	// windows outside the comparable region; Extra the replayed
	// windows with no recorded counterpart (informational).
	Windows     int `json:"windows"`
	Compared    int `json:"compared"`
	Missing     int `json:"missing,omitempty"`
	NotReplayed int `json:"not_replayed,omitempty"`
	RungSkipped int `json:"rung_skipped,omitempty"`
	Extra       int `json:"extra,omitempty"`

	Divergences []Divergence `json:"divergences,omitempty"`
}

// OK reports whether the replay upheld the determinism contract.
func (r *ReplayReport) OK() bool {
	return r.Skipped || (len(r.Divergences) == 0 && r.Missing == 0)
}

// Replay feeds b's raw frames through a freshly built receiver + solver
// stack (with an injected manual clock — nothing reads wall time) and
// diffs the resulting per-window summaries against the recorded ones.
// An error means the replay harness could not run (bad metadata,
// protocol violation); divergence is reported in the ReplayReport, not
// the error.
func Replay(b *Bundle) (*ReplayReport, error) {
	h := b.Header
	rep := &ReplayReport{
		Session:  h.Session,
		Cause:    h.Cause,
		Complete: h.Complete(),
		Windows:  len(b.Windows),
	}
	if !h.Meta.Reproducible {
		rep.Skipped = true
		rep.SkipReason = h.Meta.UnreproducibleReason
		if rep.SkipReason == "" {
			rep.SkipReason = "session marked unreproducible"
		}
		return rep, nil
	}
	if !rep.Complete && len(b.Frames) == 0 {
		rep.Skipped = true
		rep.SkipReason = "wrapped bundle carries no frames"
		return rep, nil
	}

	params, err := h.Meta.Params()
	if err != nil {
		return nil, err
	}
	dec, err := coordinator.NewRealTimeDecoder(params, coordinator.Mode(h.Meta.Mode))
	if err != nil {
		return nil, fmt.Errorf("blackbox: rebuilding decoder: %w", err)
	}
	reg := telemetry.NewRegistry() //csecg:metricok replay-local measurement registry, inspected in-process only
	dec.Instrument(reg, telemetry.NewManualClock(0))

	sd := &scriptedDecoder{inner: dec}
	if rep.Complete {
		sd.fail = recordedFailures(b.Events)
	}
	rx := coordinator.NewReceiver(sd, h.Meta.Transport())
	// Reinstall the session's trace seed so replayed window records
	// reproduce the recorded causal trace IDs bit-for-bit.
	rx.SetTraceSeed(h.Meta.TraceSeed)

	// The replay records itself with a mirror recorder — the diff is
	// record-vs-record, field for field.
	mirror := NewRecorder(Config{
		Session:         h.Session,
		FrameArenaBytes: 1 << 16,
		FrameCap:        64,
		WindowCap:       len(b.Frames) + len(b.Windows) + 64,
		EventCap:        len(b.Frames) + 64,
	})
	rx.SetRecorder(mirror)

	curSlot := 0
	if !rep.Complete {
		rx.ResumeAt(b.Frames[0].Seq, b.Frames[0].Slot)
		curSlot = b.Frames[0].Slot
	}
	for _, f := range b.Frames {
		for curSlot < f.Slot {
			rx.EndSlot()
			curSlot++
		}
		if _, err := rx.IngestFrame(f.Data); err != nil {
			return nil, fmt.Errorf("blackbox: replaying frame seq %d: %w", f.Seq, err)
		}
	}
	for curSlot < h.Slot {
		rx.EndSlot()
		curSlot++
	}
	rx.Close()

	got := mirror.WindowRecords()
	if rep.Complete {
		diffComplete(rep, b.Windows, got)
	} else {
		diffWrapped(rep, b.Windows, got)
	}
	for _, ord := range sd.unforced {
		rep.Divergences = append(rep.Divergences, Divergence{
			Ordinal: ord, Field: "decode-failure", Want: "failure", Got: "success",
		})
	}
	return rep, nil
}

// recordedFailures extracts the decode-failure script from the event
// records: attempt ordinal → panicked.
func recordedFailures(events []EventRecord) map[int64]bool {
	m := map[int64]bool{}
	for _, e := range events {
		if e.Kind == "decode-failure" {
			m[e.Ordinal] = e.Panicked
		}
	}
	return m
}

// diffComplete demands bit-for-bit equality on every recorded window,
// aligned by decode-attempt ordinal.
func diffComplete(rep *ReplayReport, want, got []coordinator.WindowCapture) {
	byOrd := make(map[int64]coordinator.WindowCapture, len(got))
	for _, g := range got {
		byOrd[g.Ordinal] = g
	}
	for _, w := range want {
		g, ok := byOrd[w.Ordinal]
		if !ok {
			rep.Missing++
			rep.Divergences = append(rep.Divergences, Divergence{
				Ordinal: w.Ordinal, Seq: w.Seq, Field: "window", Want: "decoded", Got: "missing",
			})
			continue
		}
		rep.Compared++
		diffWindow(rep, w, g, true)
	}
	rep.Extra = len(got) - rep.Compared
}

// diffWrapped aligns by sequence number and compares only the fields a
// mid-stream resume can reproduce, and only where the ladder rung
// matches.
func diffWrapped(rep *ReplayReport, want, got []coordinator.WindowCapture) {
	used := make([]bool, len(got))
	for _, w := range want {
		idx := -1
		for i := range got {
			if !used[i] && got[i].Seq == w.Seq {
				idx = i
				break
			}
		}
		if idx < 0 {
			rep.NotReplayed++
			continue
		}
		used[idx] = true
		if got[idx].Rung != w.Rung {
			rep.RungSkipped++
			continue
		}
		rep.Compared++
		diffWindow(rep, w, got[idx], false)
	}
	rep.Extra = len(got) - (rep.Compared + rep.RungSkipped)
}

// diffWindow appends a divergence per unequal field. Full mode covers
// every recorded field; otherwise only the solver-deterministic subset.
func diffWindow(rep *ReplayReport, w, g coordinator.WindowCapture, full bool) {
	miss := func(field, want, got string) {
		rep.Divergences = append(rep.Divergences, Divergence{
			Ordinal: w.Ordinal, Seq: w.Seq, Field: field, Want: want, Got: got,
		})
	}
	eqI := func(field string, want, got int) {
		if want != got {
			miss(field, strconv.Itoa(want), strconv.Itoa(got))
		}
	}
	eqB := func(field string, want, got bool) {
		if want != got {
			miss(field, strconv.FormatBool(want), strconv.FormatBool(got))
		}
	}
	eqF := func(field string, want, got float64) {
		if math.Float64bits(want) != math.Float64bits(got) {
			miss(field, strconv.FormatFloat(want, 'g', -1, 64), strconv.FormatFloat(got, 'g', -1, 64))
		}
	}
	// approxF is the wrapped-tier float comparison: the resumed decoder's
	// warm start differs from the original, so the solve lands near, not
	// on, the recorded residual.
	approxF := func(field string, want, got float64) {
		diff := math.Abs(want - got)
		scale := math.Max(math.Abs(want), math.Abs(got))
		if diff > 0.05*scale {
			miss(field, strconv.FormatFloat(want, 'g', -1, 64), strconv.FormatFloat(got, 'g', -1, 64))
		}
	}
	if w.Seq != g.Seq {
		miss("seq", strconv.FormatUint(uint64(w.Seq), 10), strconv.FormatUint(uint64(g.Seq), 10))
	}
	eqI("escape_count", w.EscapeCount, g.EscapeCount)
	eqB("converged", w.Converged, g.Converged)
	if !full {
		approxF("residual_norm", w.ResidualNorm, g.ResidualNorm)
		return
	}
	eqI("iterations", w.Iterations, g.Iterations)
	eqF("residual_norm", w.ResidualNorm, g.ResidualNorm)
	eqI("slot", w.Slot, g.Slot)
	eqI("rung", int(w.Rung), int(g.Rung))
	eqB("deadline_expired", w.DeadlineExpired, g.DeadlineExpired)
	eqB("degraded", w.Degraded, g.Degraded)
	eqF("est_prdn", w.EstPRDN, g.EstPRDN)
	eqB("bad", w.Bad, g.Bad)
	if w.ModeledNs != g.ModeledNs {
		miss("modeled_ns", strconv.FormatInt(w.ModeledNs, 10), strconv.FormatInt(g.ModeledNs, 10))
	}
	if w.Trace != g.Trace {
		miss("trace", strconv.FormatUint(w.Trace, 10), strconv.FormatUint(g.Trace, 10))
	}
}
