package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between closest ranks. vals need not be sorted; it is not
// modified. An empty sample has no percentiles: the result is NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// supported reports whether a sample of n values has at least ten beyond its
// p-quantile — the choosing-metrics rule for which percentile may be quoted.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), because
// that is what the driver's acceptance check computes. It needs two values.
func quartiles(vals []float64) (q1, q3 float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against. One value has no
// spread (0).
func spread(vals []float64) float64 {
	q1, q3, ok := quartiles(vals)
	if !ok {
		return 0
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
