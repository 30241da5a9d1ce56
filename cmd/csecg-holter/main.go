// Command csecg-holter produces a Holter-style clinical report for a
// substitute-database record after a round trip through the CS
// pipeline, with every number computed twice — on the original signal
// and on the reconstruction — so the report shows exactly what the
// compression preserves.
//
// Usage:
//
//	csecg-holter -record 202 -seconds 300 -cr 50
//	csecg-holter -record 202 -trace out.json -metrics metrics.prom -pprof cpu.pprof
//
// -pprof also arms the mutex and block profilers and writes
// cpu.pprof.mutex and cpu.pprof.block alongside the CPU profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"csecg"
	"csecg/internal/prof"
)

func main() {
	var (
		record      = flag.String("record", "106", "substitute database record ID")
		seconds     = flag.Float64("seconds", 300, "seconds to analyze")
		cr          = flag.Float64("cr", 50, "CS compression ratio")
		seed        = flag.Uint("seed", 0x601, "sensing-matrix seed")
		metricsFile = flag.String("metrics", "", "write a Prometheus text metrics dump to this file ('-' for stdout)")
		traceFile   = flag.String("trace", "", "write a Chrome trace_event JSON of every window's wall-clock encode/decode to this file")
		pprofFile   = flag.String("pprof", "", "write a Go CPU profile of the run to this file")
	)
	flag.Parse()

	if *pprofFile != "" {
		p, err := prof.Start(*pprofFile)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := p.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "csecg-holter: pprof: %v\n", err)
			}
		}()
	}
	var reg *csecg.Metrics
	if *metricsFile != "" {
		reg = csecg.NewMetrics()
	}
	rec, err := csecg.RecordByID(*record)
	if err != nil {
		fail(err)
	}
	adc, err := rec.Channel256(*seconds, 0)
	if err != nil {
		fail(err)
	}
	params := csecg.Params{Seed: uint16(*seed), M: csecg.MForCR(*cr, csecg.WindowSize)}
	enc, err := csecg.NewEncoder(params)
	if err != nil {
		fail(err)
	}
	dec, err := csecg.NewDecoder32(params)
	if err != nil {
		fail(err)
	}
	// -trace records each window as a span tree of two host wall-clock
	// leaves, encode then decode, on the session's coordinator track.
	var spans *csecg.SpanTracer
	if *traceFile != "" {
		spans = csecg.NewSpanTracer(csecg.SpanTracerConfig{
			Label:           "holter record " + *record,
			RetainAll:       true,
			RetainAnomalous: len(adc)/csecg.WindowSize + 1,
		})
	}
	runStart := time.Now()
	var orig, recon []float64
	for o := 0; o+csecg.WindowSize <= len(adc); o += csecg.WindowSize {
		win := adc[o : o+csecg.WindowSize]
		encStart := time.Now()
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			fail(err)
		}
		decStart := time.Now()
		out, err := dec.DecodePacket(pkt)
		if err != nil {
			fail(err)
		}
		decEnd := time.Now()
		if spans != nil {
			at := encStart.Sub(runStart).Nanoseconds()
			encNs := decStart.Sub(encStart).Nanoseconds()
			wt := spans.Begin(pkt.Seq)
			wt.Root(at)
			wt.Leaf("encode", at, encNs)
			wt.SolverLeaf("decode", at+encNs, decEnd.Sub(decStart).Nanoseconds(), 0)
			spans.Finish(wt, 0, decEnd.Sub(encStart).Nanoseconds())
		}
		if reg != nil {
			reg.Counter("holter_windows_total").Inc()
			reg.Histogram("holter_encode_wall_ns").Observe(decStart.Sub(encStart).Nanoseconds())
			reg.Histogram("holter_decode_wall_ns").Observe(decEnd.Sub(decStart).Nanoseconds())
			reg.Histogram("holter_iterations").Observe(int64(out.Iterations))
		}
		for i := range win {
			orig = append(orig, float64(win[i]))
			recon = append(recon, float64(out.Samples[i]))
		}
	}
	det, err := csecg.NewQRSDetector(csecg.FsMote)
	if err != nil {
		fail(err)
	}
	beatsOf := func(x []float64) []csecg.HolterBeat {
		var beats []csecg.HolterBeat
		for _, b := range det.DetectBeats(x) {
			beats = append(beats, csecg.HolterBeat{
				Time:        float64(b.Sample) / csecg.FsMote,
				Ventricular: b.Ventricular,
			})
		}
		return beats
	}
	origBeats, reconBeats := beatsOf(orig), beatsOf(recon)

	fmt.Printf("HOLTER REPORT — record %s (%s)\n", rec.ID, rec.Description)
	fmt.Printf("%.1f min analyzed through the CS pipeline at CR %.0f%%\n\n", *seconds/60, *cr)
	fmt.Printf("%-28s %12s %12s\n", "", "original", "reconstructed")

	refRep, err := csecg.AnalyzeHolter(origBeats)
	if err != nil {
		fail(err)
	}
	gotRep, err := csecg.AnalyzeHolter(reconBeats)
	if err != nil {
		fail(err)
	}
	rowF := func(name string, a, b float64) { fmt.Printf("%-28s %12.1f %12.1f\n", name, a, b) }
	rowF("beats", float64(refRep.Beats), float64(gotRep.Beats))
	rowF("mean HR (bpm)", refRep.MeanHR, gotRep.MeanHR)
	rowF("HR min (bpm)", refRep.MinHR, gotRep.MinHR)
	rowF("HR max (bpm)", refRep.MaxHR, gotRep.MaxHR)
	rowF("SDNN (ms)", refRep.SDNN, gotRep.SDNN)
	rowF("RMSSD (ms)", refRep.RMSSD, gotRep.RMSSD)
	rowF("pNN50 (%)", refRep.PNN50*100, gotRep.PNN50*100)
	rowF("PVC burden (/h)", refRep.VentricularPerHour, gotRep.VentricularPerHour)
	rowF("pauses > 2 s", float64(len(refRep.Pauses)), float64(len(gotRep.Pauses)))

	if refSp, err := csecg.AnalyzeSpectralHRV(origBeats); err == nil {
		if gotSp, err := csecg.AnalyzeSpectralHRV(reconBeats); err == nil {
			rowF("LF/HF ratio", refSp.LFHFRatio, gotSp.LFHFRatio)
			rowF("HRV peak (mHz)", refSp.PeakHz*1000, gotSp.PeakHz*1000)
		}
	}

	_, refAF, err := csecg.DetectAF(origBeats)
	if err != nil {
		fail(err)
	}
	gotEps, gotAF, err := csecg.DetectAF(reconBeats)
	if err != nil {
		fail(err)
	}
	rowF("AF time (%)", refAF*100, gotAF*100)
	if gotAF > 0.5 {
		fmt.Printf("\nRHYTHM: atrial fibrillation (%d episodes on the reconstruction)\n", len(gotEps))
	} else if gotRep.VentricularPerHour > 300 {
		fmt.Printf("\nRHYTHM: frequent ventricular ectopy\n")
	} else {
		fmt.Printf("\nRHYTHM: predominantly sinus\n")
	}
	fmt.Printf("report-level deviation: %.1f%%\n", csecg.CompareHolterReports(refRep, gotRep)*100)

	if reg != nil {
		writeOut(*metricsFile, func(f *os.File) error { return csecg.WriteMetrics(f, reg) })
	}
	if spans != nil {
		writeOut(*traceFile, func(f *os.File) error { return csecg.WriteChromeTrace(f, spans.Records()) })
	}
}

// writeOut streams one telemetry export to the named file ("-" → stdout).
func writeOut(path string, write func(f *os.File) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fail(err)
		}
		defer f.Close() //csecg:errok output file, write errors surface below
	}
	if err := write(f); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "csecg-holter: %v\n", err)
	os.Exit(1)
}
