// Package telemetry is the simulated world's observability layer: a
// typed metrics registry with hierarchical names, a simulated-clock
// tracer that emits Chrome trace-event JSON (loadable in Perfetto), and
// a per-message latency phase breakdown.
//
// Design rules, shared by all three parts:
//
//   - zero overhead when disabled: every handle and recorder method is
//     nil-safe, so instrumented code calls straight through a nil check
//     and pays nothing when no registry/tracer/recorder is attached;
//   - deterministic output: snapshots iterate names in sorted order,
//     trace events are emitted in simulation order, and every renderer
//     uses fixed formatting — two runs with the same seed produce
//     byte-identical bytes at any -jobs setting;
//   - single-world ownership: a Registry (or Tracer, or Causal) belongs
//     to one simulated world, exactly like the engine it observes.
//     Cross-world aggregation goes through Snapshot.Merge / WriteTrace
//     in enumeration order, which keeps parallel sweeps deterministic.
package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"

	"alpusim/internal/stats"
	"alpusim/internal/trace"
)

// Counter is a monotonically increasing metric handle.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Set overwrites the value — the harvest path for components that keep
// their own cheap struct counters and publish them at snapshot time
// (idempotent, so repeated harvests never double-count).
func (c *Counter) Set(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Get returns the current value (0 for a nil handle).
func (c *Counter) Get() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value (queue occupancy, high-water mark).
// Snapshot merges take the maximum, the useful fold for peaks.
type Gauge struct{ v int64 }

// Set overwrites the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// SetMax raises the value to v if larger.
func (g *Gauge) SetMax(v int64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Get returns the current value (0 for a nil handle).
func (g *Gauge) Get() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a registry-owned fixed-bucket histogram (the trace
// package's queue-depth bucket scheme).
type Histogram struct{ h trace.Histogram }

// Add records one observation.
func (h *Histogram) Add(v int) {
	if h != nil {
		h.h.Add(v)
	}
}

// Set overwrites the underlying histogram wholesale — the harvest path
// for components that accumulate into their own trace.Histogram and
// publish it at snapshot time (idempotent, like Counter.Set).
func (h *Histogram) Set(v trace.Histogram) {
	if h != nil {
		h.h = v
	}
}

// Hist returns a copy of the underlying histogram.
func (h *Histogram) Hist() trace.Histogram {
	if h == nil {
		return trace.Histogram{}
	}
	return h.h
}

// Registry is a set of named metrics. Names are hierarchical
// slash-separated paths ("nic0/rel/retransmits"); handles are created on
// first touch and cached by the instrumented component.
//
// Handle creation and Snapshot are guarded by a mutex, because a
// partitioned world (mpi.Config.Partitions) shares one registry across
// its partition goroutines and some components create handles at runtime
// (e.g. per-error-kind counters). The handles themselves stay unlocked:
// each one is written by a single component, and the partition barrier
// orders those writes against any cross-partition read.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating) the named counter; nil registry -> nil
// handle, whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	s.Hists = make(map[string]trace.Histogram, len(r.hists))
	for name, h := range r.hists {
		s.Hists[name] = h.h
	}
	return s
}

// Snapshot is a frozen copy of a registry, safe to merge across worlds
// and render deterministically.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]trace.Histogram
}

// Merge folds other into s: counters sum, gauges take the maximum,
// histograms merge. The fold is commutative, so merging per-world
// snapshots in enumeration order is independent of how the worlds were
// scheduled.
func (s *Snapshot) Merge(other Snapshot) {
	for name, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64)
		}
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		if cur, ok := s.Gauges[name]; !ok || v > cur {
			s.Gauges[name] = v
		}
	}
	for name, h := range other.Hists {
		if s.Hists == nil {
			s.Hists = make(map[string]trace.Histogram)
		}
		cur := s.Hists[name]
		cur.Merge(&h)
		s.Hists[name] = cur
	}
}

// Counter returns a counter's value by exact name.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Sum totals every counter whose slash-separated name contains path as a
// consecutive run of complete segments: Sum("rel/retransmits") folds
// "nic0/rel/retransmits" across all NICs, Sum("err") folds every
// protocol-error counter. Leading and trailing separators in path are
// ignored ("rel/" sums the same counters as "rel"); an empty path — or
// one that is only separators — matches nothing, so a fold of everything
// must be written explicitly.
func (s Snapshot) Sum(path string) uint64 {
	path = strings.Trim(path, "/")
	if path == "" {
		return 0
	}
	var total uint64
	for name, v := range s.Counters {
		if pathMatch(name, path) {
			total += v
		}
	}
	return total
}

// pathMatch reports whether path occurs in name as a run of complete
// segments. The boundary checks are what keep "nic0/rel" from matching
// "nic0/relx/acks": every occurrence must start and end on a separator
// (or a name edge), not merely be a substring.
func pathMatch(name, path string) bool {
	for from := 0; ; {
		i := strings.Index(name[from:], path)
		if i < 0 {
			return false
		}
		i += from
		end := i + len(path)
		if (i == 0 || name[i-1] == '/') && (end == len(name) || name[end] == '/') {
			return true
		}
		from = i + 1
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Table renders the snapshot as an aligned name/value table (counters,
// then gauges, then histogram summaries, each sorted by name) — the
// watchdog diagnostic-dump format.
func (s Snapshot) Table() string {
	tb := stats.NewTable("metric", "value")
	for _, name := range sortedKeys(s.Counters) {
		tb.AddRow(name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		tb.AddRow(name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		tb.AddRow(name, h.String())
	}
	return tb.String()
}

// jsonHist is the deterministic JSON form of a histogram: summary fields
// plus the non-empty buckets as an ordered array.
type jsonHist struct {
	N       uint64       `json:"n"`
	Mean    float64      `json:"mean"`
	Max     int          `json:"max"`
	P50     int          `json:"p50"`
	P95     int          `json:"p95"`
	P99     int          `json:"p99"`
	Buckets []jsonBucket `json:"buckets"`
}

type jsonBucket struct {
	Bucket string `json:"bucket"`
	Count  uint64 `json:"count"`
}

// WriteJSON renders the snapshot as deterministic JSON: map keys are
// emitted sorted (encoding/json's map ordering), histogram buckets in
// bucket order. Identical snapshots produce identical bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	doc := struct {
		Counters map[string]uint64   `json:"counters"`
		Gauges   map[string]int64    `json:"gauges"`
		Hists    map[string]jsonHist `json:"histograms"`
	}{
		Counters: s.Counters,
		Gauges:   s.Gauges,
		Hists:    make(map[string]jsonHist, len(s.Hists)),
	}
	if doc.Counters == nil {
		doc.Counters = map[string]uint64{}
	}
	if doc.Gauges == nil {
		doc.Gauges = map[string]int64{}
	}
	for name, h := range s.Hists {
		jh := jsonHist{
			N: h.N(), Mean: h.Mean(), Max: h.Max(),
			P50: h.Percentile(0.5), P95: h.Percentile(0.95), P99: h.Percentile(0.99),
			Buckets: []jsonBucket{},
		}
		for _, b := range h.Buckets() {
			jh.Buckets = append(jh.Buckets, jsonBucket{Bucket: b.Label, Count: b.Count})
		}
		doc.Hists[name] = jh
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
