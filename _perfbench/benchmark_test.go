package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program
// reports, the repository's BENCHMARK.json and layers.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var layers struct {
		Workloads []struct{ Name string }
		PerLayer  []struct {
			Name, Layer string
			Stage       *string
			Moves       []struct{ Metric, Workload string }
		} `json:"per_layer"`
	}
	readJSON(t, "layers.json", &layers)

	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d is %s (%s), the program reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("BENCHMARK.json end_to_end", bench.EndToEnd, endToEnd)
	check("BENCHMARK.json per_layer", bench.PerLayer, perLayer)

	if len(bench.Workloads) != len(workloads) || len(layers.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, layers.json %d, the program %d", len(bench.Workloads), len(layers.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one the program runs", w.Name)
		}
		if i < len(layers.Workloads) && layers.Workloads[i].Name != w.Name {
			t.Errorf("layers.json workload %d is %s, BENCHMARK.json has %s", i, layers.Workloads[i].Name, w.Name)
		}
	}

	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	stages := map[string]bool{"huffman": true, "fista": true, "reconstruct": true, "rx": true}
	if len(layers.PerLayer) != len(perLayer) {
		t.Fatalf("layers.json describes %d per-layer metrics, the program reports %d", len(layers.PerLayer), len(perLayer))
	}
	for i, l := range layers.PerLayer {
		if l.Name != perLayer[i].name {
			t.Errorf("layers.json per-layer metric %d is %s, the program reports %s", i, l.Name, perLayer[i].name)
		}
		if l.Layer == "" {
			t.Errorf("layers.json gives %s no layer", l.Name)
		}
		if l.Stage != nil && !stages[*l.Stage] {
			t.Errorf("layers.json gives %s stage %q, not a telemetry stage the decode path records", l.Name, *l.Stage)
		}
		for _, m := range l.Moves {
			if _, ok := workloads[m.Workload]; !ok || !e2e[m.Metric] {
				t.Errorf("layers.json says %s moves %s on %s: no such end-to-end metric or workload", l.Name, m.Metric, m.Workload)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
