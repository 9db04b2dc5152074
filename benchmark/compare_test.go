package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	wall := metricDef{name: "wall_s", unit: "s", better: "lower", bound: 0.10}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same runs", parent, "unchanged"},
		{"every pair faster", scaled(parent, 0.8), "improved"},
		{"median 15% slower", scaled(parent, 1.15), "worse"},
		{"slower within bound", scaled(parent, 1.05), "unchanged"},
		{"spread wider than bound", []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}, "unresolved"},
	} {
		if got := compareMetric(parent, c.change, wall).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	if got := compareMetric(parent, scaled(parent, 1.2), higher).verdict; got != "improved" {
		t.Errorf("higher-is-better gain: verdict %q", got)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestSplitSides(t *testing.T) {
	sides, err := splitSides([]string{"p/a.json", "p/b.json", "c/a.json", "c/b.json"})
	if err != nil || len(sides[0]) != 2 || len(sides[1]) != 2 || sides[1][0] != "c/a.json" {
		t.Errorf("splitSides = %v, %v", sides, err)
	}
	if _, err := splitSides([]string{"p/a.json", "c/a.json", "x/a.json"}); err == nil {
		t.Error("three directories must be refused")
	}
	if _, err := splitSides([]string{"p/a.json"}); err == nil {
		t.Error("one directory must be refused")
	}
}
