package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics the program reports, the
// workloads it accepts and the declarations in BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, reported []spec) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(reported))
		}
		for i := range min(len(declared), len(reported)) {
			if declared[i].Name != reported[i].name || declared[i].Unit != reported[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}

// TestEveryLayerMetricIsMapped checks that baseline.json says, for every
// per-layer metric, which end-to-end metric it should move and where.
func TestEveryLayerMetricIsMapped(t *testing.T) {
	raw, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		LayerMap map[string]struct {
			Layer, Moves, Workload string
		} `json:"layer_map"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, s := range perLayer {
		m, ok := b.LayerMap[s.name]
		if !ok || m.Layer == "" || m.Moves == "" || m.Workload == "" {
			t.Errorf("baseline.json layer_map lacks a complete entry for %s", s.name)
		}
	}
	for name := range b.LayerMap {
		if _, ok := metricUnits[name]; !ok {
			t.Errorf("baseline.json layer_map names unknown metric %s", name)
		}
	}
}
