package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8},
	} {
		if got := percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty sample has no median")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// A percentile may be quoted only with ten samples beyond it: p95 needs 200
// samples, p99 needs 1000.
func TestSupportedSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4) gives,
// since the driver judges the benchmark's steadiness with that function.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([81.2, 85.8, 88.1, 90.4, 93.7, 79.9, 86.3, 87.0, 91.2, 84.4], n=4)
	// -> [83.6, 86.65, 90.6]
	v := []float64{81.2, 85.8, 88.1, 90.4, 93.7, 79.9, 86.3, 87.0, 91.2, 84.4}
	q1, q3, ok := quartiles(v)
	if !ok || math.Abs(q1-83.6) > 1e-9 || math.Abs(q3-90.6) > 1e-9 {
		t.Fatalf("quartiles = %v, %v, %v; want 83.6, 90.6", q1, q3, ok)
	}
	if got, want := spread(v), (90.6-83.6)/86.65; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if spread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}
