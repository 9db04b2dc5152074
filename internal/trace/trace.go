// Package trace provides the queue-behaviour instrumentation behind the
// paper's motivation: refs [8] and [9] measured how deep real
// applications' posted-receive and unexpected queues grow and how far
// matches land in them — the numbers that justify offloading list
// processing in the first place. The workloads package uses these
// recorders to reproduce that style of study on the simulated cluster.
package trace

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bucket depth histogram with power-of-two-ish
// bucket edges suited to queue depths (0, 1, 2, 3-4, 5-8, ..., >4096).
type Histogram struct {
	counts [14]uint64
	sum    uint64
	max    int
	n      uint64
}

// bucketEdges are the inclusive upper bounds of each bucket.
var bucketEdges = [13]int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Add records one observation.
func (h *Histogram) Add(depth int) {
	if depth < 0 {
		depth = 0
	}
	h.n++
	h.sum += uint64(depth)
	if depth > h.max {
		h.max = depth
	}
	for i, edge := range bucketEdges {
		if depth <= edge {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Merge folds other's observations into h (used to aggregate per-NIC
// histograms into a cluster-wide study report).
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.sum += other.sum
	h.n += other.n
	if other.max > h.max {
		h.max = other.max
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Max returns the largest observation.
func (h *Histogram) Max() int { return h.max }

// Mean returns the average observation.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the smallest bucket upper bound covering the
// p-quantile (0 < p <= 1) of observations.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	target := uint64(p * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(bucketEdges) {
				return bucketEdges[i]
			}
			return h.max
		}
	}
	return h.max
}

// String renders the histogram compactly for reports.
func (h *Histogram) String() string {
	if h.n == 0 {
		return "(empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f max=%d p50<=%d p95<=%d p99<=%d",
		h.n, h.Mean(), h.max, h.Percentile(0.5), h.Percentile(0.95), h.Percentile(0.99))
	return b.String()
}

// Quantile is one summary quantile estimate: the P-quantile of the
// observations lies at or below Value (a bucket upper bound).
type Quantile struct {
	P     float64
	Value int
}

// SummaryQuantiles returns the conventional summary quantile set
// (p50/p95/p99) estimated from the fixed buckets — the shape Prometheus
// summary metrics expose under a quantile label.
func (h *Histogram) SummaryQuantiles() []Quantile {
	return []Quantile{
		{0.5, h.Percentile(0.5)},
		{0.95, h.Percentile(0.95)},
		{0.99, h.Percentile(0.99)},
	}
}

// Buckets returns (label, count) pairs for non-empty buckets.
func (h *Histogram) Buckets() []struct {
	Label string
	Count uint64
} {
	var out []struct {
		Label string
		Count uint64
	}
	prev := -1
	for i, c := range h.counts {
		var label string
		if i < len(bucketEdges) {
			edge := bucketEdges[i]
			if edge == prev+1 {
				label = fmt.Sprint(edge)
			} else {
				label = fmt.Sprintf("%d-%d", prev+1, edge)
			}
			prev = edge
		} else {
			label = fmt.Sprintf(">%d", prev)
		}
		if c > 0 {
			out = append(out, struct {
				Label string
				Count uint64
			}{label, c})
		}
	}
	return out
}

// CumBucket is one cumulative histogram bucket: Count observations with
// value <= Le. Le < 0 denotes the +Inf overflow bucket.
type CumBucket struct {
	Le    int
	Count uint64
}

// CumBuckets returns every bucket (including empty ones) in ascending
// edge order with cumulative counts — the Prometheus exposition shape,
// where each le="..." sample counts all observations at or below the
// edge and the final +Inf bucket equals N().
func (h *Histogram) CumBuckets() []CumBucket {
	out := make([]CumBucket, len(h.counts))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := -1
		if i < len(bucketEdges) {
			le = bucketEdges[i]
		}
		out[i] = CumBucket{Le: le, Count: cum}
	}
	return out
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }
