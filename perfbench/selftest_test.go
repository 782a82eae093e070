package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestGeneratorSelfTest(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 42, 1 << 63} {
		if err := selfTest(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the runs report.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", c.name, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), reported %s (%s)", c.name, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
