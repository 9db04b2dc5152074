package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(120 - i) // 1..120, reversed
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 60}, {0.9, 108}, {1, 120}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..120, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The highest reported percentile needs at least ten samples beyond it:
// p90 needs 100 samples, and every workload pools at least that many.
func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{120, 0.9, 12}, {100, 0.9, 10}, {99, 0.9, 9}, {10, 0.5, 5}, {1, 0.9, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if beyond(99, 0.9) >= minBeyond || beyond(100, 0.9) < minBeyond {
		t.Errorf("p90 must need exactly 100 samples")
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
