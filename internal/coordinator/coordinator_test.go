package coordinator

import (
	"math"
	"testing"

	"csecg/internal/core"
	"csecg/internal/ecg"
	"csecg/internal/metrics"
)

func TestIterationBudgetsMatchPaper(t *testing.T) {
	p := core.Params{M: metrics.MForCR(50, core.WindowSize)}
	c := DefaultCosts()
	vfp := c.IterationBudget(p, VFP, RealTimeBudgetSeconds)
	neon := c.IterationBudget(p, NEON, RealTimeBudgetSeconds)
	// Paper: ≈800 iterations without optimizations, ≈2000 with.
	if vfp < 700 || vfp > 950 {
		t.Errorf("VFP budget %d, want ≈800", vfp)
	}
	if neon < 1800 || neon > 2300 {
		t.Errorf("NEON budget %d, want ≈2000", neon)
	}
}

func TestSpeedupMatchesPaper(t *testing.T) {
	s := Speedup(core.Params{M: metrics.MForCR(50, core.WindowSize)})
	if math.Abs(s-2.43) > 0.01 {
		t.Errorf("modeled speedup %v, want 2.43", s)
	}
}

func TestMACsPerIterationScales(t *testing.T) {
	base := MACsPerIteration(core.Params{M: 256})
	moreMeas := MACsPerIteration(core.Params{M: 384})
	heavierPhi := MACsPerIteration(core.Params{M: 256, D: 24})
	if moreMeas <= base {
		t.Error("MACs not increasing in M")
	}
	if heavierPhi <= base {
		t.Error("MACs not increasing in d")
	}
	// Zero-value params resolve to defaults rather than zero work.
	if MACsPerIteration(core.Params{}) <= 0 {
		t.Error("default params produced non-positive MAC count")
	}
}

func TestModeString(t *testing.T) {
	if VFP.String() != "VFP" || NEON.String() != "NEON" {
		t.Error("mode names wrong")
	}
}

func TestRealTimeDecoderEndToEnd(t *testing.T) {
	params := core.Params{Seed: 5, M: metrics.MForCR(50, core.WindowSize)}
	enc, err := core.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewRealTimeDecoder(params, NEON)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Mode() != NEON {
		t.Error("mode not recorded")
	}
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(14, 0)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o+core.WindowSize <= len(samples); o += core.WindowSize {
		pkt, err := enc.EncodeWindow(samples[o : o+core.WindowSize])
		if err != nil {
			t.Fatal(err)
		}
		res, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deadline {
			t.Errorf("packet %d missed the 1 s deadline: %v", pkt.Seq, res.ModeledTime)
		}
		if res.Iterations > dec.IterationBudget() {
			t.Errorf("iterations %d exceed budget %d", res.Iterations, dec.IterationBudget())
		}
	}
	// Paper: 17.7% average CPU at CR=50 (NEON). Accept the right regime.
	cpu := dec.AverageCPUUsage()
	if cpu <= 0.02 || cpu >= 0.5 {
		t.Errorf("average coordinator CPU %.1f%%, want tens of percent", cpu*100)
	}
	t.Logf("NEON coordinator CPU at CR=50: %.1f%%", cpu*100)
}

func TestVFPSlowerThanNEON(t *testing.T) {
	p := core.Params{M: 256}
	c := DefaultCosts()
	if c.IterationTime(p, VFP) <= c.IterationTime(p, NEON) {
		t.Error("VFP iteration not slower than NEON")
	}
	if c.DecodeTime(p, VFP, 100) != 100*c.IterationTime(p, VFP) {
		t.Error("DecodeTime not linear in iterations")
	}
}

func TestSimulateDisplayHealthy(t *testing.T) {
	// 30 packets, decode always 0.4 s (the Fig. 7 regime): no underruns
	// after startup, occupancy within the 6 s buffer, latency < buffer.
	times := make([]float64, 30)
	for i := range times {
		times[i] = 0.4
	}
	rep, err := SimulateDisplay(DisplayConfig{}, 2.0, times)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Underruns != 0 {
		t.Errorf("healthy run has %d underruns", rep.Underruns)
	}
	if rep.Overflows != 0 {
		t.Errorf("healthy run has %d overflows", rep.Overflows)
	}
	if rep.MaxOccupancySeconds > 6 {
		t.Errorf("occupancy %v exceeds 6 s buffer", rep.MaxOccupancySeconds)
	}
	if rep.EndToEndLatency > 6 {
		t.Errorf("latency %v exceeds buffer depth", rep.EndToEndLatency)
	}
	if rep.DrawnSeconds < 50 {
		t.Errorf("drew only %v s of 60", rep.DrawnSeconds)
	}
}

func TestSimulateDisplayOverloadedDecoder(t *testing.T) {
	// Decode slower than real time (2.5 s per 2 s packet): the consumer
	// must starve.
	times := make([]float64, 20)
	for i := range times {
		times[i] = 2.5
	}
	rep, err := SimulateDisplay(DisplayConfig{}, 2.0, times)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Underruns == 0 {
		t.Error("overloaded decoder produced no underruns")
	}
}

func TestSimulateDisplayErrors(t *testing.T) {
	if _, err := SimulateDisplay(DisplayConfig{}, 0, []float64{0.1}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := SimulateDisplay(DisplayConfig{}, 2, nil); err == nil {
		t.Error("empty decode times accepted")
	}
	if _, err := SimulateDisplay(DisplayConfig{}, 2, []float64{-1}); err == nil {
		t.Error("negative decode time accepted")
	}
}

func TestSimulateDisplayDrainRateSufficient(t *testing.T) {
	// 4 px / 15 ms = 266.7 samples/s > 256 samples/s: the consumer keeps
	// up, so occupancy must stay bounded over a long run.
	times := make([]float64, 200)
	for i := range times {
		times[i] = 0.3
	}
	rep, err := SimulateDisplay(DisplayConfig{}, 2.0, times)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxOccupancySeconds > 6 {
		t.Errorf("long-run occupancy %v s grows beyond buffer", rep.MaxOccupancySeconds)
	}
}

func TestSolverTuningAccess(t *testing.T) {
	dec, err := NewRealTimeDecoder(core.Params{Seed: 1}, VFP)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := dec.SolverTuning()
	if err != nil || inner == nil {
		t.Fatal("SolverTuning failed")
	}
}

// TestModeChangesOnlyCycleModel pins what the build mode may change: a
// VFP and a NEON decoder fed the same stream compute the same
// reconstructions bit for bit, and differ only in modeled time, by the
// cycle model's NEON speedup.
func TestModeChangesOnlyCycleModel(t *testing.T) {
	p := core.Params{Seed: 1, M: metrics.MForCR(50, core.WindowSize)}
	const windows = 20
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(float64(windows*core.WindowSize)/core.FsMote, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	vfp, err := NewRealTimeDecoder(p, VFP)
	if err != nil {
		t.Fatal(err)
	}
	neon, err := NewRealTimeDecoder(p, NEON)
	if err != nil {
		t.Fatal(err)
	}
	// The default six-stage continuation splits the cold key frame's
	// budget per stage, and at the VFP budget its last stage is cut
	// (133 iterations), so the budget alone would set window 0 apart.
	// A single-stage cold solve converges under either cap.
	for _, d := range []*RealTimeDecoder{vfp, neon} {
		inner, err := d.SolverTuning()
		if err != nil {
			t.Fatal(err)
		}
		inner.ContinuationStages = 1
	}
	speedup := Speedup(vfp.Params())
	for w := 0; w < windows; w++ {
		pkt, err := enc.EncodeWindow(samples[w*core.WindowSize : (w+1)*core.WindowSize])
		if err != nil {
			t.Fatal(err)
		}
		a, err := vfp.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := neon.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		// Under the VFP cap both decoders stop on the tolerance, so the
		// comparison below is not about iteration budgets.
		if !a.Converged {
			t.Fatalf("window %d: VFP decode hit its %d-iteration cap", w, vfp.IterationBudget())
		}
		if a.Iterations != b.Iterations || math.Float64bits(a.ResidualNorm) != math.Float64bits(b.ResidualNorm) {
			t.Fatalf("window %d: VFP (%d iterations, residual %v), NEON (%d, %v)", w, a.Iterations, a.ResidualNorm, b.Iterations, b.ResidualNorm)
		}
		for i := range a.MV {
			if math.Float32bits(a.MV[i]) != math.Float32bits(b.MV[i]) {
				t.Fatalf("window %d sample %d: VFP %v, NEON %v", w, i, a.MV[i], b.MV[i])
			}
		}
		// ModeledTime is whole nanoseconds.
		if r := float64(a.ModeledTime) / float64(b.ModeledTime); math.Abs(r-speedup) > 1e-6 {
			t.Errorf("window %d: modeled VFP/NEON time %v, want Speedup %v", w, r, speedup)
		}
	}
}

func BenchmarkSimulateDisplay200Packets(b *testing.B) {
	times := make([]float64, 200)
	for i := range times {
		times[i] = 0.4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDisplay(DisplayConfig{}, 2.0, times); err != nil {
			b.Fatal(err)
		}
	}
}
