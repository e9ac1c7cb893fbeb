package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root and the program must name the
// same metrics with the same units and directions.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		s := perLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, s)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q unknown to the program or without a why", w.Name)
		}
	}
}

func TestMetricNamesAreValid(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(s.name) || !unit.MatchString(s.unit) || seen[s.name] {
			t.Errorf("bad or repeated metric %+v", s)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("%s: better = %q", s.name, s.better)
		}
		seen[s.name] = true
	}
}

func TestFillReportsExactlyTheSpecs(t *testing.T) {
	got, err := fill(endToEnd, map[string]float64{"p50_ms": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) || got["p50_ms"].Value != 1.5 || got["p50_ms"].Unit != "ms" {
		t.Errorf("fill = %v", got)
	}
	if _, err := fill(endToEnd, map[string]float64{"dohclient.self_us": 1}); err == nil {
		t.Error("a value outside the reported set was accepted")
	}
}
