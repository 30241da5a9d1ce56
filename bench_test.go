package csecg_test

// One benchmark per table/figure of the paper's evaluation, as indexed
// in DESIGN.md §4. The benchmarks run reduced workloads (one or two
// records, a few windows) so `go test -bench=. -benchmem` completes in
// minutes; `cmd/csecg-bench` regenerates the full tables.

import (
	"testing"

	"csecg"
	"csecg/internal/experiments"
)

func benchOpt() experiments.Options {
	return experiments.Options{Records: []string{"100"}, SecondsPerRecord: 8}
}

// BenchmarkFig2SparseVsGaussian regenerates Fig. 2 (output SNR vs CR for
// sparse binary against Gaussian sensing).
func BenchmarkFig2SparseVsGaussian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig6Precision regenerates Fig. 6 (PRD vs CR at float32 vs
// float64 decoder precision).
func BenchmarkFig6Precision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig7IterationsTime regenerates Fig. 7 (mean iterations and
// reconstruction time per packet vs CR).
func BenchmarkFig7IterationsTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkEncoderWindow measures the host cost of the full integer
// encoder per 2-second window (the mote's 82 ms claim is the modeled
// figure; this is the real arithmetic).
func BenchmarkEncoderWindow(b *testing.B) {
	params := csecg.Params{Seed: 1, M: csecg.MForCR(50, csecg.WindowSize)}
	enc, err := csecg.NewEncoder(params)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := csecg.RecordByID("100")
	if err != nil {
		b.Fatal(err)
	}
	samples, err := rec.Channel256(4, 0)
	if err != nil {
		b.Fatal(err)
	}
	win := samples[:csecg.WindowSize]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeWindow(win); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(csecg.WindowSize), "samples/op")
}

// BenchmarkMemoryFootprint regenerates the §IV-A.2 memory table.
func BenchmarkMemoryFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Memory()
		if err != nil {
			b.Fatal(err)
		}
		if res.Mem.RAMTotal() == 0 {
			b.Fatal("empty footprint")
		}
	}
}

// BenchmarkSpeedupModel regenerates the §V VFP-vs-NEON table and reports
// the modeled speedup as a metric.
func BenchmarkSpeedupModel(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Speedup()
		if err != nil {
			b.Fatal(err)
		}
		last = res.Speedup
	}
	b.ReportMetric(last, "speedup")
}

// BenchmarkCPUUsage regenerates the §V CPU-usage table.
func BenchmarkCPUUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CPU(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if res.MoteCPU <= 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkLifetimeExtension regenerates the §V lifetime table.
func BenchmarkLifetimeExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Lifetime(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkConvergenceFISTAvsISTA regenerates the §II-B convergence
// study.
func BenchmarkConvergenceFISTAvsISTA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Convergence(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Checkpoints) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkAblationD regenerates the §IV-A.2 column-weight trade-off.
func BenchmarkAblationD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Encoder(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkAblationRedundancy regenerates the redundancy-removal
// ablation.
func BenchmarkAblationRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RedundancyAblation(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAblationBasis regenerates the wavelet-vs-DCT basis table.
func BenchmarkAblationBasis(b *testing.B) {
	opt := experiments.Options{Records: []string{"100", "208"}, SecondsPerRecord: 8}
	for i := 0; i < b.N; i++ {
		res, err := experiments.BasisAblation(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkBaselineDWT regenerates the CS-vs-transform-coding baseline
// table.
func BenchmarkBaselineDWT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Baseline(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkAnalogFrontEnd regenerates the digital-vs-analog CS table.
func BenchmarkAnalogFrontEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Analog(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkResilience regenerates the loss-vs-key-frame table.
func BenchmarkResilience(b *testing.B) {
	opt := experiments.Options{Records: []string{"100"}, SecondsPerRecord: 30}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Resilience(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHolterReport regenerates the report-fidelity table.
func BenchmarkHolterReport(b *testing.B) {
	opt := experiments.Options{Records: []string{"106"}, SecondsPerRecord: 8}
	for i := 0; i < b.N; i++ {
		res, err := experiments.HolterReport(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkDiagnosticQRS regenerates the clinical-validity table.
func BenchmarkDiagnosticQRS(b *testing.B) {
	opt := experiments.Options{Records: []string{"106"}, SecondsPerRecord: 16}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Diagnostic(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkEndToEndSession measures a complete 30-second monitored
// session through mote, link and coordinator models.
func BenchmarkEndToEndSession(b *testing.B) {
	cfg := csecg.StreamConfig{
		RecordID: "100",
		Seconds:  30,
		Params:   csecg.Params{Seed: 9, M: csecg.MForCR(50, csecg.WindowSize)},
		Mode:     csecg.ModeNEON,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := csecg.RunStream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Windows == 0 {
			b.Fatal("no windows")
		}
	}
}
