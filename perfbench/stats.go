package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of sorted
// values by linear interpolation between the two closest ranks (the
// "type 7" rule of R and NumPy). It is NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 || p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	h := float64(n-1) * p / 100
	lo := int(math.Floor(h))
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns the three cut points dividing xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does by default
// (the "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // may fall outside [0, 4]: Python extrapolates too
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise a metric's bound must
// exceed.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
