package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 2.5}, {99, 3.97}, {100, 4}, {25, 1.75},
	} {
		if got := percentile(s, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
}

func TestSpreadIsInterquartileRangeOverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
