// Command csecg-bench regenerates the paper's tables and figures on the
// substitute database and prints them as aligned text tables.
//
// Usage:
//
//	csecg-bench -exp all                 # everything (default subset of records)
//	csecg-bench -exp fig2,fig7           # selected experiments
//	csecg-bench -exp fig6 -all48         # full 48-record database
//	csecg-bench -exp lifetime -seconds 60
//	csecg-bench -exp fig7 -format csv    # machine-readable output
//
// Observability:
//
//	csecg-bench -exp transport -trace out.json    # Chrome trace of every window's span tree
//	csecg-bench -exp transport -spans traces.jsonl # the same trees as trace JSONL (csecg-triage input)
//	csecg-bench -exp cpu -metrics metrics.prom    # Prometheus text dump
//	csecg-bench -exp all -pprof cpu.pprof         # CPU+mutex+block profiles
//
// Robustness:
//
//	csecg-bench -exp chaos                        # full survival matrix
//	csecg-bench -exp chaos -short                 # CI smoke (shrunk sessions)
//
// Paper experiments: fig2, fig6, fig7, encoder, memory, speedup, cpu,
// lifetime, convergence. Extensions: resilience, transport, baseline,
// analog, diagnostic, holter-report, chaos. Ablations: ablation-basis,
// ablation-wavelet, ablation-solver, ablation-redundancy,
// ablation-huffman, ablation-shift.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"csecg"
	"csecg/internal/experiments"
	"csecg/internal/prof"
)

// writeFile streams telemetry output to the named file ("-" → stdout).
func writeFile(kind, path string, write func(w *os.File) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csecg-bench: %s: %v\n", kind, err)
			os.Exit(1)
		}
		defer f.Close() //csecg:errok output file, write errors surface below
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "csecg-bench: %s: %v\n", kind, err)
		os.Exit(1)
	}
}

func main() { os.Exit(run()) }

// run holds the real main so deferred telemetry/profile writers execute
// before the process exits.
func run() int {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment list or 'all'")
		all48       = flag.Bool("all48", false, "use the full 48-record database (slow)")
		seconds     = flag.Float64("seconds", 0, "seconds of signal per record (default 24)")
		records     = flag.String("records", "", "comma-separated record IDs (overrides the default subset)")
		format      = flag.String("format", "table", "output format: table or csv")
		metricsFile = flag.String("metrics", "", "write a Prometheus text metrics dump to this file ('-' for stdout)")
		traceFile   = flag.String("trace", "", "write a Chrome trace_event JSON of every window's causal span tree to this file")
		pprofFile   = flag.String("pprof", "", "write Go CPU/mutex/block profiles of the run to this file (+.mutex/.block)")
		short       = flag.Bool("short", false, "shrink long-running experiments (chaos) to CI-smoke size")
		recordDir   = flag.String("record-dir", "", "attach a black-box flight recorder to chaos scenarios and seal diagnostics bundles into this directory")
		spansFile   = flag.String("spans", "", "write every window's causal span tree as trace JSONL to this file ('-' for stdout; csecg-triage input)")
	)
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "csecg-bench: unknown format %q\n", *format)
		os.Exit(2)
	}

	opt := experiments.Options{SecondsPerRecord: *seconds}
	if *all48 {
		opt.Records = experiments.AllRecords()
	}
	if *records != "" {
		opt.Records = strings.Split(*records, ",")
	}
	if *metricsFile != "" {
		opt.Metrics = csecg.NewMetrics()
	}
	if *traceFile != "" || *spansFile != "" {
		opt.Trace = experiments.NewTraces()
	}
	if *pprofFile != "" {
		p, err := prof.Start(*pprofFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csecg-bench: pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := p.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "csecg-bench: pprof: %v\n", err)
			}
		}()
	}

	type runner struct {
		name string
		run  func() (*experiments.Table, error)
	}
	runners := []runner{
		{"fig2", func() (*experiments.Table, error) {
			r, err := experiments.Fig2(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig6", func() (*experiments.Table, error) {
			r, err := experiments.Fig6(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig7", func() (*experiments.Table, error) {
			r, err := experiments.Fig7(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"encoder", func() (*experiments.Table, error) {
			r, err := experiments.Encoder(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"memory", func() (*experiments.Table, error) {
			r, err := experiments.Memory()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"speedup", func() (*experiments.Table, error) {
			r, err := experiments.Speedup()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"cpu", func() (*experiments.Table, error) {
			r, err := experiments.CPU(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"lifetime", func() (*experiments.Table, error) {
			r, err := experiments.Lifetime(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"convergence", func() (*experiments.Table, error) {
			r, err := experiments.Convergence(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"resilience", func() (*experiments.Table, error) {
			r, err := experiments.Resilience(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"transport", func() (*experiments.Table, error) {
			r, err := experiments.Transport(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"baseline", func() (*experiments.Table, error) {
			r, err := experiments.Baseline(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"analog", func() (*experiments.Table, error) {
			r, err := experiments.Analog(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"holter-report", func() (*experiments.Table, error) {
			r, err := experiments.HolterReport(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"diagnostic", func() (*experiments.Table, error) {
			r, err := experiments.Diagnostic(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-basis", func() (*experiments.Table, error) {
			r, err := experiments.BasisAblation(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-wavelet", func() (*experiments.Table, error) {
			r, err := experiments.WaveletAblation(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-solver", func() (*experiments.Table, error) {
			r, err := experiments.SolverAblation(opt)
			if err != nil {
				return nil, err
			}
			for _, row := range r.Rows {
				fmt.Fprintf(os.Stderr, "(ablation-solver: %s measured %.1f ms host time/window)\n",
					row.Name, float64(row.MeanTime.Microseconds())/1000)
			}
			return r.Table(), nil
		}},
		{"ablation-redundancy", func() (*experiments.Table, error) {
			r, err := experiments.RedundancyAblation(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-shift", func() (*experiments.Table, error) {
			r, err := experiments.ShiftAblation(opt)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"ablation-huffman", func() (*experiments.Table, error) {
			r, err := experiments.HuffmanAblation()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"chaos", func() (*experiments.Table, error) {
			r, err := experiments.ChaosTraced(*short, *recordDir, opt.Trace)
			if err != nil {
				return nil, err
			}
			if *recordDir != "" {
				for _, row := range r.Rows {
					for _, b := range row.Bundles {
						fmt.Printf("chaos %s: sealed %s\n", row.Report.Scenario, b)
					}
				}
			}
			if fails := r.Failures(); len(fails) > 0 {
				fmt.Println(r.Table().Render())
				return nil, fmt.Errorf("survival contract violated: %s", strings.Join(fails, "; "))
			}
			return r.Table(), nil
		}},
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	if !runAll {
		for _, name := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	known := map[string]bool{}
	for _, r := range runners {
		known[r.name] = true
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "csecg-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	exit := 0
	for _, r := range runners {
		if !runAll && !want[r.name] {
			continue
		}
		start := time.Now()
		table, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "csecg-bench: %s: %v\n", r.name, err)
			exit = 1
			continue
		}
		if *format == "csv" {
			fmt.Print(table.CSV())
			fmt.Println()
		} else {
			fmt.Printf("%s\n\n", table.Render())
			fmt.Fprintf(os.Stderr, "(%s took %.1fs)\n", r.name, time.Since(start).Seconds())
		}
	}

	if opt.Metrics != nil {
		writeFile("metrics", *metricsFile, func(w *os.File) error {
			return csecg.WriteMetrics(w, opt.Metrics)
		})
	}
	if opt.Trace != nil {
		// A capture that lost trees to the retention cap would write a
		// trace silently missing windows.
		if err := opt.Trace.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "csecg-bench: trace: %v\n", err)
			return 1
		}
		recs := opt.Trace.Records()
		if *traceFile != "" {
			writeFile("trace", *traceFile, func(w *os.File) error {
				return csecg.WriteChromeTrace(w, recs)
			})
		}
		if *spansFile != "" {
			writeFile("spans", *spansFile, func(w *os.File) error {
				return csecg.WriteSpanTraceJSONL(w, recs)
			})
			if *spansFile != "-" {
				fmt.Printf("wrote %d span trees to %s\n", len(recs), *spansFile)
			}
		}
	}
	return exit
}
