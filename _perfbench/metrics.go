package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports on every workload,
// in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"sessions_per_core", "sessions"},
	{"window_ms_p50", "ms"},
	{"window_ms_tail", "ms"},
	{"prdn_mean_pct", "%"},
	{"wire_cr_pct", "%"},
	{"alloc_kb_per_window", "KiB"},
	{"released_pct", "%"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a --trace 1 run reports on every workload,
// in BENCHMARK.json order; layers.json says what each measures. A
// workload that does not run a layer reports 0 for it.
var perLayer = []metricDef{
	{"solver.iterations_per_window", "count"},
	{"solver.iter_us", "us"},
	{"solver.self_us_per_iter", "us"},
	{"solver.alloc_kb_per_solve", "KiB"},
	{"go.gc_per_100_windows", "count"},
	{"solver.converged_ratio", "ratio"},
	{"solver.cold_solves", "1/100windows"},
	{"sensing.apply_ns", "ns"},
	{"sensing.apply_t_ns", "ns"},
	{"sensing.calls_per_window", "count"},
	{"wavelet.synth_ns", "ns"},
	{"wavelet.analysis_ns", "ns"},
	{"huffman.decode_us_per_window", "us"},
	{"huffman.escapes_per_window", "count"},
	{"core.encode_us", "us"},
	{"core.marshal_us", "us"},
	{"core.parse_us", "us"},
	{"core.reconstruct_us", "us"},
	{"coordinator.decode_ms", "ms"},
	{"coordinator.rx_self_us", "us"},
	{"coordinator.nacks", "1/100windows"},
	{"coordinator.key_requests", "1/100windows"},
	{"coordinator.resyncs", "1/100windows"},
	{"coordinator.abandoned", "1/100windows"},
	{"coordinator.buffered", "1/100windows"},
	{"coordinator.overhead_pct", "%"},
	{"metrics.estimate_ns", "ns"},
	{"telemetry.scrape_us", "us"},
	{"telemetry.scrape_bytes", "bytes"},
	{"gen.mote_us", "us"},
	{"gen.link_us", "us"},
	{"trace_overhead_pct", "%"},
	{"trace.accounted_pct", "%"},
}

func endToEndMetrics(values map[string]float64) ([]metric, error) {
	return collect(endToEnd, values)
}

func perLayerMetrics(values map[string]float64) ([]metric, error) {
	return collect(perLayer, values)
}

// collect pairs every defined metric with its value; a value missing or
// not defined is a bug in the workload.
func collect(defs []metricDef, values map[string]float64) ([]metric, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metric values for %d metrics", len(values), len(defs))
	}
	out := make([]metric, len(defs))
	for i, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("no value for metric %s", d.name)
		}
		out[i] = metric{name: d.name, value: v, unit: d.unit}
	}
	return out, nil
}

// checkDigest compares a run's digest of its deterministic outputs with
// the one an earlier run of the same binary, workload and seed left in
// the state directory, and leaves it there for the next run.
func checkDigest(o options, digest uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := fnv.New64a()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	path := filepath.Join(o.stateDir, fmt.Sprintf("digest-%s-%d-%016x", o.workload, o.seed, h.Sum64()))
	want := strconv.FormatUint(digest, 16)
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != want {
			return fmt.Errorf("outputs differ from an earlier run with seed %d (digest %s, was %s)", o.seed, want, prev)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return os.WriteFile(path, []byte(want), 0o644)
}
