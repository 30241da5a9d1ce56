// Command perfbench is csecg's stream benchmark. It drives the
// coordinator with closed-loop streams of 2-second windows made from a
// seed, times every call into the system from outside, checks the
// outputs, and prints one JSON result as its last line.
//
// Build and run it from a checkout with run.sh:
//
//	bash _perfbench/run.sh --workload stream-cr50 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced
// and then a traced phase over the same windows and reports the
// per-layer metrics; layers.json records what each one measures and
// which end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// A workload runs one named input mix and reports its metrics.
type workload func(o options) (*outcome, error)

var workloads = map[string]workload{
	"stream-cr50":   streamCR50.run,
	"lossy-cr80":    lossyCR80.run,
	"encode-ingest": runIngest,
}

// options are the command-line settings every workload takes.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// stateDir receives span dumps and the digests that compare runs.
	stateDir string
}

// outcome is one workload run's report.
type outcome struct {
	attempted, failed int64
	metrics           []metric
	// notes are printed above the result line for a human reader.
	notes []string
	// checkErr is the first output check that failed.
	checkErr error
}

type metric struct {
	name  string
	value float64
	unit  string
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&o.stateDir, "state", ".bench_build/perfbench", "directory for span dumps and run digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = *trace == 1
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res := result{
		Correct:   out.checkErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]resultMetric, len(out.metrics)),
	}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", o.workload, m.name, m.value)
			return 1
		}
		res.Metrics[m.name] = resultMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", o.workload, out.checkErr)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
