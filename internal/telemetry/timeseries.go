package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"alpusim/internal/sim"
)

// Simulated-time series: the time dimension of the observability plane.
//
// A Sampler owns a set of named Series and a chain of front-class polls
// (sim.Engine.AtPollFront) that fires at exact multiples of the sample
// interval. Because a front poll sorts before every modelled event at the
// same instant — in both event kernels — each sample observes the world
// exactly as left by the events strictly before the tick, a state that is
// a pure function of the modelled event set and therefore identical at
// any partitioning.
//
// Determinism at any run length comes from RRD-style power-of-two
// decimation: a Series holds at most its capacity of samples, and when
// full it drops every second retained sample and doubles its stride. The
// retained set is a pure function of (number of pushes, capacity), so two
// runs of different lengths still decimate identically over their common
// prefix, and the same run always yields the same bytes.
//
// Determinism at any -par comes from canonical padding: each partition's
// shard samples only while its local engine has modelled work, so a shard
// may stop early relative to the world's end-of-model time. Finalize pads
// every series to the canonical count floor(tEnd/dt)+1 by re-reading its
// probe — by then the world is drained and every probe reads the same
// frozen state the missed polls would have observed.

// DefaultSampleInterval is the default sampling period: 100 ns of
// simulated time (timestamps are picoseconds).
const DefaultSampleInterval = sim.Time(100_000)

// DefaultSeriesCap is the default per-series capacity (samples retained
// before decimation doubles the stride).
const DefaultSeriesCap = 256

// Series is one fixed-capacity, downsample-on-overflow sample series.
// Values are pushed at every sampler tick; the series retains pushes
// whose index is a multiple of its current stride and doubles the stride
// whenever the buffer fills.
type Series struct {
	name  string
	cap   int    // power of two
	every uint64 // retain push n iff n % every == 0
	n     uint64 // total pushes offered so far
	last  int64  // most recently offered value (retained or not)
	vals  []int64
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Every returns the current decimation stride.
func (s *Series) Every() uint64 { return s.every }

// Pushes returns how many samples were offered in total.
func (s *Series) Pushes() uint64 { return s.n }

// Last returns the most recently offered value.
func (s *Series) Last() int64 { return s.last }

// Samples returns the retained samples. Sample j holds the value offered
// at push index j*Every(); with interval dt, that push happened at
// simulated time (j*Every()+1)*dt.
func (s *Series) Samples() []int64 { return s.vals }

// Push offers one sample. Retention is a pure function of the push index
// and the capacity: push n is kept iff n is a multiple of the current
// stride, and a full buffer halves itself (keeping even positions) and
// doubles the stride before accepting the triggering push — which, the
// capacity being a power of two, is always itself a multiple of the
// doubled stride.
func (s *Series) Push(v int64) {
	s.last = v
	idx := s.n
	s.n++
	if idx%s.every != 0 {
		return
	}
	if len(s.vals) == s.cap {
		for i := 0; i < s.cap/2; i++ {
			s.vals[i] = s.vals[2*i]
		}
		s.vals = s.vals[:s.cap/2]
		s.every *= 2
	}
	s.vals = append(s.vals, v)
}

// Peak returns the maximum retained sample (0 when empty).
func (s *Series) Peak() int64 {
	var peak int64
	for _, v := range s.vals {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// probe pairs a series with the closure that reads its current value.
type probe struct {
	s  *Series
	fn func() int64
}

// Sampler drives a set of probes from one engine's front-poll chain.
// Like every recorder in this package it is single-world (or, in a
// partitioned world, single-partition) owned: one engine, no locks.
// All methods are nil-safe.
type Sampler struct {
	dt  sim.Time
	cap int

	probes []probe
	series map[string]*Series

	eng   *sim.Engine
	armed bool
	nextK uint64 // next tick index; tick k fires at k*dt
}

// NewSampler returns a sampler with the given interval and per-series
// capacity. Non-positive arguments select the defaults; the capacity is
// rounded up to a power of two (minimum 8).
func NewSampler(dt sim.Time, capacity int) *Sampler {
	if dt <= 0 {
		dt = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	c := 8
	for c < capacity {
		c *= 2
	}
	return &Sampler{dt: dt, cap: c, series: make(map[string]*Series)}
}

// Shard returns a new empty sampler with the same interval and capacity —
// the per-partition recorder a partitioned world attaches to each of its
// engines, later folded back with Absorb.
func (sa *Sampler) Shard() *Sampler {
	if sa == nil {
		return nil
	}
	return NewSampler(sa.dt, sa.cap)
}

// Interval returns the sampling period.
func (sa *Sampler) Interval() sim.Time {
	if sa == nil {
		return 0
	}
	return sa.dt
}

// Probe registers a named probe. Each name may be registered once per
// world (nic-scoped names guarantee this across partition shards).
func (sa *Sampler) Probe(name string, fn func() int64) {
	if sa == nil {
		return
	}
	if _, dup := sa.series[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %q", name))
	}
	s := &Series{name: name, cap: sa.cap, every: 1}
	sa.series[name] = s
	sa.probes = append(sa.probes, probe{s: s, fn: fn})
}

// sample reads every probe once, in registration order.
func (sa *Sampler) sample() {
	for _, p := range sa.probes {
		p.s.Push(p.fn())
	}
}

// tick is one firing of the poll chain: sample, then re-arm at the next
// interval multiple while the local engine still has modelled work. A
// chain that stops here can be revived by Rearm (injection into a
// quiescent partition).
func (sa *Sampler) tick() {
	sa.sample()
	sa.nextK++
	if sa.eng.Alive() > 0 {
		sa.eng.AtPollFront(sim.Time(sa.nextK)*sa.dt, sa.tick)
	} else {
		sa.armed = false
	}
}

// Attach arms the sampler's poll chain on eng, first tick one interval
// in. Must be called at time zero, before the engine runs; one sampler
// per engine (AtPollFront allows a single front poll per instant).
func (sa *Sampler) Attach(eng *sim.Engine) {
	if sa == nil {
		return
	}
	sa.eng = eng
	sa.armed = true
	sa.nextK = 1
	eng.AtPollFront(sa.dt, sa.tick)
}

// Rearm revives a chain that stopped because its engine went quiescent —
// the PartitionSet.OnInject hook, called when a barrier injects
// deliveries into a drained partition. The chain resumes at the tick
// index where it stopped; the engine was frozen in between, so the
// resumed ticks sample exactly the values the serial run would have.
func (sa *Sampler) Rearm() {
	if sa == nil || sa.eng == nil || sa.armed {
		return
	}
	sa.armed = true
	sa.eng.AtPollFront(sim.Time(sa.nextK)*sa.dt, sa.tick)
}

// Finalize pads every series to the canonical push count for a world
// whose last modelled event fired at tEnd: floor(tEnd/dt)+1 — exactly
// the ticks a serial run performs. Padding re-reads the probe: the world
// is drained, so the probe reads the frozen state every missed tick
// would have observed. Idempotent once the canonical count is reached.
func (sa *Sampler) Finalize(tEnd sim.Time) {
	if sa == nil {
		return
	}
	canon := uint64(tEnd/sa.dt) + 1
	for _, p := range sa.probes {
		for p.s.n < canon {
			p.s.Push(p.fn())
		}
	}
}

// Absorb folds a shard's series into sa — a union by name, since every
// series is written by exactly one shard. Rendering sorts by name, so
// the fold order is immaterial.
func (sa *Sampler) Absorb(o *Sampler) {
	if sa == nil || o == nil {
		return
	}
	for name, s := range o.series {
		if _, dup := sa.series[name]; dup {
			panic(fmt.Sprintf("telemetry: series %q absorbed twice", name))
		}
		sa.series[name] = s
	}
	o.series = make(map[string]*Series)
	o.probes = nil
}

// AbsorbAs folds a finished sampler's series into sa under a name
// prefix — the cross-world fold: a sweep's per-cell samplers all use
// nic-scoped names, so a cell prefix ("alpu-128/q512/") keeps them
// distinct in the merged set.
func (sa *Sampler) AbsorbAs(prefix string, o *Sampler) {
	if sa == nil || o == nil {
		return
	}
	for name, s := range o.series {
		s.name = prefix + name
		if _, dup := sa.series[s.name]; dup {
			panic(fmt.Sprintf("telemetry: series %q absorbed twice", s.name))
		}
		sa.series[s.name] = s
	}
	o.series = make(map[string]*Series)
	o.probes = nil
}

// All returns every series sorted by name — the canonical render order.
func (sa *Sampler) All() []*Series {
	if sa == nil {
		return nil
	}
	names := sortedKeys(sa.series)
	out := make([]*Series, 0, len(names))
	for _, n := range names {
		out = append(out, sa.series[n])
	}
	return out
}

// Publish writes each series' final and peak values as registry gauges
// (ts/<name>/last, ts/<name>/peak), so the waterlines surface on
// /metrics next to the counters they track.
func (sa *Sampler) Publish(reg *Registry) {
	if sa == nil || reg == nil {
		return
	}
	for _, s := range sa.All() {
		reg.Gauge("ts/" + s.name + "/last").Set(s.last)
		reg.Gauge("ts/" + s.name + "/peak").Set(s.Peak())
	}
}

// WriteJSON renders the sampler deterministically: series sorted by
// name, sample j of a series standing for simulated time
// (j*every+1)*interval_ps. Identical worlds produce identical bytes at
// any -par/-jobs setting. The document is encoded straight into one
// presized buffer, byte for byte what json.MarshalIndent with a
// two-space indent makes of
//
//	{"interval_ps": …, "series": [{"name", "every", "pushes", "samples"}, …]}
//
// with a trailing newline.
func (sa *Sampler) WriteJSON(w io.Writer) error {
	var all []*Series
	var dt sim.Time
	if sa != nil {
		all, dt = sa.All(), sa.dt
	}
	size := 64
	for _, s := range all {
		size += 128 + len(s.name) + 28*len(s.vals)
	}
	b := make([]byte, 0, size)
	b = append(b, "{\n  \"interval_ps\": "...)
	b = strconv.AppendInt(b, int64(dt), 10)
	b = append(b, ",\n  \"series\": ["...)
	for i, s := range all {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = appendJSONString(b, s.name)
		b = append(b, ",\n      \"every\": "...)
		b = strconv.AppendUint(b, s.every, 10)
		b = append(b, ",\n      \"pushes\": "...)
		b = strconv.AppendUint(b, s.n, 10)
		b = append(b, ",\n      \"samples\": ["...)
		for j, v := range s.vals {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        "...)
			b = strconv.AppendInt(b, v, 10)
		}
		if len(s.vals) > 0 {
			b = append(b, "\n      "...)
		}
		b = append(b, "]\n    }"...)
	}
	if len(all) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}

// appendJSONString appends s as encoding/json quotes it. Printable ASCII
// other than the quote, the backslash and the HTML-escaped <, > and &
// is copied as is; any other string goes through json.Marshal, which
// also replaces invalid UTF-8 and escapes U+2028 and U+2029.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
