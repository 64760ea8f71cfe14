package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json at the root of
// the repository names exactly the metrics, with the units, that a run
// prints, and that layers.json cites only metrics a run prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bj)

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json gates %d end-to-end metrics, a run prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] is %s (%s), a run prints %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	want := perLayer()
	if len(bj.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(bj.PerLayer), len(want))
	}
	for i, m := range bj.PerLayer {
		if m.Name != want[i].Name || m.Unit != want[i].Unit {
			t.Errorf("per_layer[%d] is %s (%s), a traced run prints %s (%s)", i, m.Name, m.Unit, want[i].Name, want[i].Unit)
		}
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}

	known := map[string]bool{}
	for _, m := range append(append(append([]metricDef(nil), endToEnd...), extraEndToEnd...), want...) {
		known[m.Name] = true
	}
	var lj struct {
		Layers []struct {
			Layer string
			Moves []string
		}
		ReportedNotGated []struct{ Metric string } `json:"reported_not_gated"`
	}
	readJSON(t, "layers.json", &lj)
	for _, l := range lj.Layers {
		if !known[l.Layer] {
			t.Errorf("layers.json names unknown layer metric %q", l.Layer)
		}
		for _, m := range l.Moves {
			if !known[m] {
				t.Errorf("layers.json: %s moves unknown metric %q", l.Layer, m)
			}
		}
	}
	for _, r := range lj.ReportedNotGated {
		if !known[r.Metric] {
			t.Errorf("layers.json reports unknown metric %q", r.Metric)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
