package chaos

import (
	"reflect"
	"testing"

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
			if err := rep.Survived(sc.withDefaults().QueueLimit); err != nil {
				t.Fatalf("%v\nreport: %+v", err, rep)
			}
			if rep.ContainedPanics != rep.EscapedPanics && rep.EscapedPanics != 0 {
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
	if r := reports["burst-loss"]; r.Abandoned == 0 {
		t.Errorf("burst-loss scenario lost nothing: %+v", r)
	}
	if r := reports["reboot"]; r.Reboots != 1 {
		t.Errorf("reboot scenario saw %d resyncs, want 1", r.Reboots)
	}
	if r := reports["slowdown-burst"]; r.MaxRung == coordinator.RungNominal {
		t.Errorf("slowdown scenario never engaged the ladder: %+v", r)
	} else if r.DegradedWindows == 0 {
		t.Errorf("slowdown scenario flagged no degraded windows: %+v", r)
	}
	if r := reports["panic-inject"]; r.ContainedPanics == 0 {
		t.Errorf("panic scenario contained no panics: %+v", r)
	}
	if r := reports["clock-drift"]; r.DriftSlips == 0 || r.DriftSkew == 0 {
		t.Errorf("drift scenario accrued no skew: %+v", r)
	}
	if r := reports["kitchen-sink"]; r.ContainedPanics == 0 || r.Reboots != 1 {
		t.Errorf("kitchen-sink scenario too gentle: %+v", r)
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
