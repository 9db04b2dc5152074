package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.String() != "(empty)" {
		t.Errorf("empty String = %q", h.String())
	}
	for _, d := range []int{0, 1, 1, 3, 7, 100, 5000} {
		h.Add(d)
	}
	if h.N() != 7 {
		t.Errorf("N = %d", h.N())
	}
	if h.Max() != 5000 {
		t.Errorf("Max = %d", h.Max())
	}
	wantMean := float64(0+1+1+3+7+100+5000) / 7
	if h.Mean() != wantMean {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if !strings.Contains(h.String(), "n=7") {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Add(-5)
	if h.Max() != 0 || h.Mean() != 0 {
		t.Error("negative depth not clamped to 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Add(1)
	}
	for i := 0; i < 10; i++ {
		h.Add(200)
	}
	if p := h.Percentile(0.5); p != 1 {
		t.Errorf("p50 = %d, want 1", p)
	}
	if p := h.Percentile(0.99); p != 256 {
		t.Errorf("p99 = %d, want bucket edge 256", p)
	}
	var empty Histogram
	if empty.Percentile(0.5) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(3)
	h.Add(3)
	h.Add(9999)
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %+v", bs)
	}
	if bs[0].Label != "0" || bs[0].Count != 1 {
		t.Errorf("bucket 0 = %+v", bs[0])
	}
	if bs[1].Label != "3-4" || bs[1].Count != 2 {
		t.Errorf("bucket 1 = %+v", bs[1])
	}
	if bs[2].Label != ">4096" || bs[2].Count != 1 {
		t.Errorf("bucket 2 = %+v", bs[2])
	}
}

// Property: counts always sum to N and the mean is within the recorded
// range.
func TestHistogramInvariants(t *testing.T) {
	f := func(depths []uint16) bool {
		var h Histogram
		for _, d := range depths {
			h.Add(int(d))
		}
		var sum uint64
		for _, b := range h.Buckets() {
			sum += b.Count
		}
		if sum != h.N() {
			return false
		}
		if h.N() > 0 && (h.Mean() < 0 || h.Mean() > float64(h.Max())) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Every bucket edge is the inclusive upper bound of its own bucket:
// adding the edge value twice stays in one bucket, and edge+1 spills
// into the next (4096+1 into the overflow bucket).
func TestHistogramBucketEdgePlacement(t *testing.T) {
	edges := []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	for _, e := range edges {
		var h Histogram
		h.Add(e)
		h.Add(e)
		bs := h.Buckets()
		if len(bs) != 1 || bs[0].Count != 2 {
			t.Fatalf("Add(%d) x2: buckets = %+v, want one bucket of 2", e, bs)
		}
		if want := fmt.Sprint(e); !strings.HasSuffix(bs[0].Label, want) {
			t.Errorf("Add(%d) bucket label = %q, want upper bound %s", e, bs[0].Label, want)
		}
		var h2 Histogram
		h2.Add(e)
		h2.Add(e + 1)
		if bs := h2.Buckets(); len(bs) != 2 {
			t.Errorf("Add(%d), Add(%d): buckets = %+v, want two buckets", e, e+1, bs)
		}
	}
	var h Histogram
	h.Add(4097)
	if bs := h.Buckets(); len(bs) != 1 || bs[0].Label != ">4096" {
		t.Errorf("overflow buckets = %+v", h.Buckets())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(1)
	a.Add(5)
	b.Add(300)
	b.Add(2)
	a.Merge(&b)
	if a.N() != 4 {
		t.Errorf("merged N = %d, want 4", a.N())
	}
	if a.Max() != 300 {
		t.Errorf("merged Max = %d, want 300", a.Max())
	}
	if want := float64(1+5+300+2) / 4; a.Mean() != want {
		t.Errorf("merged Mean = %v, want %v (sum not propagated)", a.Mean(), want)
	}
	var sum uint64
	for _, bk := range a.Buckets() {
		sum += bk.Count
	}
	if sum != 4 {
		t.Errorf("merged bucket counts sum to %d, want 4", sum)
	}
	var empty Histogram
	a.Merge(&empty)
	if a.N() != 4 || a.Max() != 300 {
		t.Error("merging an empty histogram changed the receiver")
	}
}

// The report string carries the summary quantiles, and SummaryQuantiles
// exposes the same estimates as the conventional p50/p95/p99 set.
func TestHistogramSummaryQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(i)
	}
	qs := h.SummaryQuantiles()
	if len(qs) != 3 || qs[0].P != 0.5 || qs[1].P != 0.95 || qs[2].P != 0.99 {
		t.Fatalf("SummaryQuantiles = %+v, want p50/p95/p99", qs)
	}
	for i, q := range qs {
		if q.Value != h.Percentile(q.P) {
			t.Errorf("quantile %v value %d != Percentile %d", q.P, q.Value, h.Percentile(q.P))
		}
		if i > 0 && q.Value < qs[i-1].Value {
			t.Errorf("quantiles not monotone: %+v", qs)
		}
	}
	s := h.String()
	for _, want := range []string{"p50<=", "p95<=", "p99<="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() %q missing %s", s, want)
		}
	}
}
