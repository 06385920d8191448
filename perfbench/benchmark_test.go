package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONNames checks that BENCHMARK.json declares exactly the
// metrics perfbench reports, with the same units.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		m := make(map[string]metric)
		for _, g := range got {
			m[g.Name] = metric{Unit: g.Unit}
		}
		if err := checkMetrics(m, want); err != nil || len(got) != len(want) {
			t.Errorf("%s: %v (declared %d, reported %d)", kind, err, len(got), len(want))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("declared %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: declared %s, perfbench has %s", i, w.Name, workloads[i])
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	want := []metricSpec{{"a_s", "s"}, {"b", "count"}}
	if err := checkMetrics(map[string]metric{"a_s": {1, "s"}, "b": {2, "count"}}, want); err != nil {
		t.Error(err)
	}
	if err := checkMetrics(map[string]metric{"a_s": {1, "s"}}, want); err == nil {
		t.Error("missing metric accepted")
	}
	if err := checkMetrics(map[string]metric{"a_s": {1, "ms"}, "b": {2, "count"}}, want); err == nil {
		t.Error("wrong unit accepted")
	}
}
