package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTheHarness keeps BENCHMARK.json and the
// metrics a run prints in step: same names, same units.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	printed := map[string]string{}
	now := time.Now()
	out := &outcome{latencies: []opSample{{now, 1}}, setups: []opSample{{now, 1}}, elapsed: time.Second}
	for _, r := range endToEnd(out, &prober{}) {
		printed[r.name] = r.m.Unit
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, a run prints %d", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] is printed as [%s] (present: %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, printed)
	check("per_layer", doc.PerLayer, layerUnits)
}
