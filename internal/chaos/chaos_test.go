package chaos

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"csecg/internal/blackbox"
	"csecg/internal/coordinator"
	"csecg/internal/telemetry"
)

// TestChaosMatrixDegradesGracefully pins the acceptance criterion: the
// full fault matrix — bit flips at ≥1e-4 BER, burst loss, a mote
// reboot mid-stream, a 2× solver slowdown under burst arrival, decode
// panics, clock drift, and all of it at once — completes with zero
// escaped panics, a bounded queue, p99 decode within the packet
// period, and the session back to decoding health.
func TestChaosMatrixDegradesGracefully(t *testing.T) {
	for _, sc := range Matrix(testing.Short()) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Survived(); err != nil {
				t.Fatalf("%v\nreport: %+v", err, rep)
			}
			if rep.Transport.DecodePanics != rep.EscapedPanics && rep.EscapedPanics != 0 {
				t.Fatalf("panic accounting inconsistent: %+v", rep)
			}
		})
	}
}

// TestChaosScenariosExerciseTheirFaults checks each scenario actually
// triggered the machinery it exists to prove — a matrix whose faults
// never fire proves nothing.
func TestChaosScenariosExerciseTheirFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix only")
	}
	reports := map[string]*Report{}
	for _, sc := range Matrix(false) {
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		reports[sc.Name] = rep
	}
	if r := reports["bitflip"]; r.CRCRejected == 0 {
		t.Errorf("bitflip scenario rejected no frames: %+v", r)
	}
	if r := reports["burst-loss"]; r.Transport.Abandoned == 0 {
		t.Errorf("burst-loss scenario lost nothing: %+v", r)
	}
	if r := reports["reboot"]; r.Transport.Reboots != 1 {
		t.Errorf("reboot scenario saw %d resyncs, want 1", r.Transport.Reboots)
	}
	if r := reports["slowdown-burst"]; r.MaxRung == coordinator.RungNominal {
		t.Errorf("slowdown scenario never engaged the ladder: %+v", r)
	} else if r.DegradedWindows == 0 {
		t.Errorf("slowdown scenario flagged no degraded windows: %+v", r)
	}
	if r := reports["panic-inject"]; r.Transport.DecodePanics == 0 {
		t.Errorf("panic scenario contained no panics: %+v", r)
	}
	if r := reports["clock-drift"]; r.Windows <= 96 || r.LinkStats.DriftSkew == 0 {
		t.Errorf("drift scenario accrued no skew: %+v", r)
	}
	if r := reports["kitchen-sink"]; r.Transport.DecodePanics == 0 || r.Transport.Reboots != 1 {
		t.Errorf("kitchen-sink scenario too gentle: %+v", r)
	}
}

// TestSlowdownSurvivesEverySeed runs the short matrix's slowdown
// scenarios over seeds 1–12: the verdict must not hang on the seed. A
// 2× slowdown sets the half-budget rung, so every one leaves nominal,
// comes back, and keeps p99 within the real-time budget (half the
// window period).
func TestSlowdownSurvivesEverySeed(t *testing.T) {
	for _, sc := range Matrix(true) {
		if sc.Slowdown <= 1 {
			continue
		}
		for seed := uint64(1); seed <= 12; seed++ {
			sc.Seed = seed
			rep, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Survived(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			if rep.MaxRung == coordinator.RungNominal {
				t.Errorf("%s seed %d never left the nominal rung", sc.Name, seed)
			}
			if rep.P99DecodeTime > rep.Bound/2 {
				t.Errorf("%s seed %d: p99 decode %v exceeds the %v real-time budget", sc.Name, seed, rep.P99DecodeTime, rep.Bound/2)
			}
		}
	}
}

// bundleSink keeps sealed bundles in memory, in seal order.
type bundleSink struct{ data [][]byte }

func (s *bundleSink) WriteBundle(name string, data []byte) (string, error) {
	s.data = append(s.data, append([]byte(nil), data...))
	return name, nil
}

// TestChaosBundlesByteReproducible: the harness reads no wall clock, so
// recording one scenario twice seals the same bundle bytes.
func TestChaosBundlesByteReproducible(t *testing.T) {
	var sc Scenario
	for _, s := range Matrix(true) {
		if s.Name == "burst-loss" {
			sc = s
		}
	}
	var sealed [2][][]byte
	for i := range sealed {
		sink := &bundleSink{}
		sc.Record = &blackbox.Config{Sink: sink}
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Recorder.SealNow(blackbox.TriggerManual, "end-of-scenario capture"); err != nil {
			t.Fatal(err)
		}
		sealed[i] = sink.data
	}
	if len(sealed[0]) == 0 || len(sealed[0]) != len(sealed[1]) {
		t.Fatalf("sealed %d and %d bundles", len(sealed[0]), len(sealed[1]))
	}
	for i := range sealed[0] {
		if !bytes.Equal(sealed[0][i], sealed[1][i]) {
			t.Fatalf("bundle %d differs between two recordings of %s", i, sc.Name)
		}
	}
}

// TestChaosRunDeterministic: identical scenarios produce identical
// reports — the harness is replayable by construction.
func TestChaosRunDeterministic(t *testing.T) {
	sc := Matrix(true)[7] // kitchen-sink
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic run:\n%+v\n%+v", a, b)
	}
}

// TestChaosSpanTreesMatchStreamTrees: the harness closes its span trees
// with RunStream's close step, so the cold start's continuation solve
// carries stage/i children that tile its solver leaf exactly, and the
// window finishing after a CRC reject carries the crc flag.
func TestChaosSpanTreesMatchStreamTrees(t *testing.T) {
	var sc Scenario
	for _, s := range Matrix(true) {
		if s.Name == "bitflip" {
			sc = s
		}
	}
	spans := telemetry.NewCausalTracer(telemetry.CausalConfig{
		Label: "chaos " + sc.Name, RetainAnomalous: 512, RetainAll: true,
	})
	sc.Spans = spans
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCRejected == 0 {
		t.Fatal("bitflip scenario rejected no frames")
	}
	var continued, crc int
	for _, r := range spans.Records() {
		for _, f := range r.Flags {
			if f == "crc" {
				crc++
			}
		}
		for si, solve := range r.Spans {
			end := solve.StartNs
			children := 0
			for _, c := range r.Spans {
				if c.Parent != si || si == 0 {
					continue
				}
				if c.Stage != telemetry.ContStageName(children) || c.StartNs != end {
					t.Errorf("window %d: child %q at %d, want %q at %d",
						r.Seq, c.Stage, c.StartNs, telemetry.ContStageName(children), end)
				}
				end += c.DurNs
				children++
			}
			if children == 0 {
				continue
			}
			continued++
			if end != solve.StartNs+solve.DurNs {
				t.Errorf("window %d: stage/i children end at %d, solver leaf %q ends at %d",
					r.Seq, end, solve.Stage, solve.StartNs+solve.DurNs)
			}
		}
	}
	if continued == 0 {
		t.Error("no chaos tree has continuation stage/i children")
	}
	if crc == 0 || crc > rep.CRCRejected {
		t.Errorf("%d trees flagged crc for %d CRC rejects", crc, rep.CRCRejected)
	}
}

// TestChaosMatrixReportPinned pins, per Matrix(true) scenario, every
// report field Survived and the experiments table read: a change to the
// session loop's receiver call sequence, fault injection or decode costs
// moves a line.
func TestChaosMatrixReportPinned(t *testing.T) {
	want := []string{
		"clean windows=36 decoded=36 degraded=0 crc=0 shed=0 qpeak=1 contained=0 escaped=0 reboots=0 p99=249950226 bound=500000000 maxrung=nominal final=nominal/decoding",
		"bitflip windows=36 decoded=20 degraded=0 crc=5 shed=0 qpeak=1 contained=0 escaped=0 reboots=0 p99=182267742 bound=500000000 maxrung=nominal final=nominal/decoding",
		"burst-loss windows=36 decoded=16 degraded=0 crc=0 shed=0 qpeak=1 contained=0 escaped=0 reboots=0 p99=224420868 bound=500000000 maxrung=nominal final=nominal/decoding",
		"reboot windows=36 decoded=36 degraded=0 crc=0 shed=0 qpeak=1 contained=0 escaped=0 reboots=1 p99=249950226 bound=500000000 maxrung=nominal final=nominal/decoding",
		"slowdown-burst windows=36 decoded=36 degraded=12 crc=0 shed=0 qpeak=4 contained=0 escaped=0 reboots=0 p99=249950226 bound=500000000 maxrung=reduced-iter final=nominal/decoding",
		"panic-inject windows=36 decoded=20 degraded=0 crc=0 shed=0 qpeak=1 contained=5 escaped=0 reboots=0 p99=182267742 bound=500000000 maxrung=nominal final=nominal/decoding",
		"clock-drift windows=37 decoded=37 degraded=0 crc=0 shed=0 qpeak=1 contained=0 escaped=0 reboots=0 p99=249950226 bound=500000000 maxrung=nominal final=nominal/decoding",
		"kitchen-sink windows=37 decoded=17 degraded=7 crc=2 shed=0 qpeak=4 contained=2 escaped=0 reboots=1 p99=249950226 bound=500000000 maxrung=reduced-iter final=nominal/decoding",
	}
	var got []string
	for _, sc := range Matrix(true) {
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s windows=%d decoded=%d degraded=%d crc=%d shed=%d qpeak=%d contained=%d escaped=%d reboots=%d p99=%d bound=%d maxrung=%v final=%v/%v",
			rep.Scenario, rep.Windows, rep.Decoded, rep.DegradedWindows, rep.CRCRejected, rep.Shed,
			rep.Transport.QueuePeak, rep.Transport.DecodePanics, rep.EscapedPanics, rep.Transport.Reboots,
			int64(rep.P99DecodeTime), int64(rep.Bound), rep.MaxRung, rep.FinalRung, rep.FinalHealth))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chaos reports moved:\ngot  %q\nwant %q", got, want)
	}
}

// TestRebootScoresWindowsAgainstTheirOwnSignal: a mote reboot restarts
// the sequence numbers mid-session, yet each decoded window must be
// scored against the window the mote encoded, not against the previous
// boot's window with the same number — so the reboot scenario's PRDN
// matches the clean run over the same synthetic signal.
func TestRebootScoresWindowsAgainstTheirOwnSignal(t *testing.T) {
	prdn := map[string]float64{}
	for _, sc := range Matrix(true) {
		if sc.Name != "clean" && sc.Name != "reboot" {
			continue
		}
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		prdn[sc.Name] = rep.MeanPRDN
	}
	if d := math.Abs(prdn["reboot"] - prdn["clean"]); d > 0.1 {
		t.Errorf("reboot mean PRDN %.3f %%, clean %.3f %%", prdn["reboot"], prdn["clean"])
	}
}
