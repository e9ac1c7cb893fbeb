package main

import (
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/resolver"
	"repro/internal/world"
)

func TestExpectedClientsClampsEachCountry(t *testing.T) {
	countries := []world.Country{
		{Code: "AA", ExitNodeWeight: 0.1},  // int(0.27) = 0 -> at least 1
		{Code: "BB", ExitNodeWeight: 10},   // 27
		{Code: "CC", ExitNodeWeight: 1000}, // 2700 -> capped at 282
	}
	if got := expectedClients(countries, 2.7, 282); got != 1+27+282 {
		t.Errorf("expectedClients = %d, want %d", got, 1+27+282)
	}
}

// The paper-scale study draws 21,722 clients from the 224 countries of
// the world dataset (the paper kept 22,052).
func TestExpectedClientsOfThePaperScaleStudy(t *testing.T) {
	cfg := studyConfig(1, studyScale)
	if n := len(world.All()); n != 224 {
		t.Fatalf("world.All() has %d countries, want 224", n)
	}
	if got := expectedClients(world.All(), cfg.ClientScale, cfg.MaxClients); got != 21722 {
		t.Errorf("expectedClients = %d, want 21722", got)
	}
}

func TestExpectedRunsPerTransport(t *testing.T) {
	cfg := campaign.DefaultConfig(1)
	if got := expectedRuns(resolver.Do53, 10, cfg.RunsPerClient, 4); got != 20 {
		t.Errorf("Do53 runs = %d, want 20", got)
	}
	for _, kind := range []resolver.Kind{resolver.DoH, resolver.DoT, resolver.DoQ} {
		if got := expectedRuns(kind, 10, cfg.RunsPerClient, 4); got != 80 {
			t.Errorf("%s runs = %d, want 80", kind, got)
		}
	}
}

func TestStudyConfigIsTheWorldstudyCommand(t *testing.T) {
	cfg := studyConfig(5, studyScale)
	if cfg.Seed != 5 || cfg.ClientScale != 2.7 || cfg.RunsPerClient != 2 || cfg.MaxClients != 282 {
		t.Errorf("config = %+v", cfg)
	}
	want := []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT, resolver.DoQ, resolver.Smart}
	if len(cfg.Transports) != len(want) {
		t.Fatalf("transports = %v", cfg.Transports)
	}
	for i := range want {
		if cfg.Transports[i] != want[i] {
			t.Errorf("transports = %v, want %v", cfg.Transports, want)
		}
	}
}

func TestGroundTruthDiffsReadRenderedRows(t *testing.T) {
	// The layouts of Tables 1 and 2 in internal/experiments.
	row1 := "IE                 52       50      2.4 |       21       20     -1.0"
	d, err := groundTruthDiffs(row1, []int{3, 7})
	if err != nil || len(d) != 2 || d[0] != 2.4 || d[1] != -1.0 {
		t.Errorf("Table 1 row -> %v, %v", d, err)
	}
	if _, err := groundTruthDiffs("IE 52 50", []int{3}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := groundTruthDiffs("IE 52 50 n/a", []int{3}); err == nil {
		t.Error("non-numeric difference accepted")
	}
}

func TestGroundTruthMissHoldsTheBars(t *testing.T) {
	// A Table 1 like seed 8's: IN's DoH row 10.6 ms off, the rest a few ms.
	table1 := []float64{2.4, 1.0, 3.1, 0.8, 4.0, 1.2, 2.2, 0.5, 10.6, 3.3, 5.1, 0.9}
	if miss := groundTruthMiss(table1, paperBarMs, table1RowCeilingMs); miss != "" {
		t.Errorf("Table 1 with one row at 10.6 ms: %s", miss)
	}
	if miss := groundTruthMiss(table1, paperBarMs, paperBarMs); miss == "" {
		t.Error("a 10.6 ms row passed a 10 ms row bar")
	}
	// An estimator that is off on most rows fails on the median.
	skewed := []float64{12, 14, 11, 15, 2, 1, 13, 16, 11, 12, 3, 2}
	if miss := groundTruthMiss(skewed, paperBarMs, table1RowCeilingMs); miss == "" {
		t.Error("median difference of 12 ms passed")
	}
	// One row 100 ms or more off fails whatever the median.
	broken := append([]float64{-120}, table1[1:]...)
	if miss := groundTruthMiss(broken, paperBarMs, table1RowCeilingMs); miss == "" {
		t.Error("a row 120 ms off passed")
	}
	if miss := groundTruthMiss([]float64{0, math.NaN(), 0, 0}, paperBarMs, paperBarMs); miss == "" {
		t.Error("NaN difference passed")
	}
	if miss := groundTruthMiss(nil, paperBarMs, paperBarMs); miss == "" {
		t.Error("no rows passed")
	}
}

func TestReportMetricNames(t *testing.T) {
	if got := reportMetric("Table 1"); got != "experiments.Table1_ms" {
		t.Errorf("reportMetric = %s", got)
	}
	if len(reportIDs) != 13 {
		t.Errorf("%d reports, want 13 (Tables 1-6, Figures 3-9)", len(reportIDs))
	}
}
