package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"alpusim/internal/sim"
)

// Tracer records simulated-clock events in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Events carry the simulation timestamp, so the rendered timeline is the
// hardware's view of time, not wall clock.
//
// A nil *Tracer is a valid no-op recorder: every method returns
// immediately, so instrumentation sites cost one nil check when tracing
// is off. Events append in call order, which for a deterministic
// simulation means the byte stream is identical across runs.
type Tracer struct {
	events []tevent
	names  []tname

	// Flight-recorder mode (NewFlightRecorder): limit bounds events to a
	// ring of the most recent limit entries; start indexes the oldest
	// retained event once the ring has wrapped; dropped counts overwritten
	// events. limit == 0 is the ordinary unbounded tracer.
	limit   int
	start   int
	dropped uint64
}

type tevent struct {
	ph       byte // 'X' span, 'i' instant, 'C' counter, 's'/'f' flow
	name     string
	cat      string
	pid, tid int
	ts, dur  sim.Time
	val      int64
	id       uint64 // flow correlation id ('s'/'f' only)
}

type tname struct {
	process  bool // process_name vs thread_name metadata
	pid, tid int
	name     string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// DefaultFlightEvents is the flight-recorder ring size used when a world
// arms a watchdog without choosing one: deep enough to hold the last few
// firmware round-trips of every NIC in a stalled world, small enough that
// a full ring is a few hundred kilobytes.
const DefaultFlightEvents = 4096

// NewFlightRecorder returns a tracer that keeps only the most recent n
// events in a preallocated ring — the always-on post-mortem recorder. It
// accepts the same Span/Instant/Count calls as a full tracer at the cost
// of one bounds check (no allocation once the ring is full), so worlds
// can record continuously even when full tracing is off. n <= 0 selects
// DefaultFlightEvents.
func NewFlightRecorder(n int) *Tracer {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &Tracer{limit: n, events: make([]tevent, 0, n)}
}

// Dropped returns the number of events overwritten by the flight ring (0
// for a nil or unbounded tracer).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// add appends an event, overwriting the oldest one when the tracer is a
// full flight ring.
func (t *Tracer) add(e tevent) {
	if t.limit > 0 && len(t.events) == t.limit {
		t.events[t.start] = e
		t.start++
		if t.start == t.limit {
			t.start = 0
		}
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// eventAt returns the i-th retained event in chronological (record)
// order, accounting for ring wraparound.
func (t *Tracer) eventAt(i int) tevent {
	if t.start > 0 {
		i += t.start
		if i >= len(t.events) {
			i -= len(t.events)
		}
	}
	return t.events[i]
}

// NameProcess attaches a display name to a pid track (e.g. "nic0").
func (t *Tracer) NameProcess(pid int, name string) {
	if t != nil {
		t.names = append(t.names, tname{process: true, pid: pid, name: name})
	}
}

// NameThread attaches a display name to a (pid, tid) track
// (e.g. "firmware", "posted-alpu").
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t != nil {
		t.names = append(t.names, tname{pid: pid, tid: tid, name: name})
	}
}

// Span records a complete event from start to end simulated time.
func (t *Tracer) Span(pid, tid int, cat, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.add(tevent{ph: 'X', name: name, cat: cat,
		pid: pid, tid: tid, ts: start, dur: end - start})
}

// Instant records a point event (rendered as a marker).
func (t *Tracer) Instant(pid, tid int, cat, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.add(tevent{ph: 'i', name: name, cat: cat,
		pid: pid, tid: tid, ts: at})
}

// Count records a counter sample (rendered as a stepped graph).
func (t *Tracer) Count(pid, tid int, name string, at sim.Time, v int64) {
	if t == nil {
		return
	}
	t.add(tevent{ph: 'C', name: name,
		pid: pid, tid: tid, ts: at, val: v})
}

// FlowStart opens a flow arrow at (pid, tid, at): Perfetto draws an
// arrow from here to the FlowEnd recorded with the same id, linking
// cross-rank spans (a sender NIC's transmit to the receiver firmware's
// pop) into one causal thread through the timeline. Flows are skipped in
// flight-recorder mode: a ring that overwrote one end of an arrow would
// render dangling flows, and the post-mortem dump consumers assert the
// plain event alphabet.
func (t *Tracer) FlowStart(pid, tid int, cat, name string, at sim.Time, id uint64) {
	if t == nil || t.limit > 0 {
		return
	}
	t.add(tevent{ph: 's', name: name, cat: cat, pid: pid, tid: tid, ts: at, id: id})
}

// FlowEnd terminates the flow arrow opened by FlowStart with the same id.
func (t *Tracer) FlowEnd(pid, tid int, cat, name string, at sim.Time, id uint64) {
	if t == nil || t.limit > 0 {
		return
	}
	t.add(tevent{ph: 'f', name: name, cat: cat, pid: pid, tid: tid, ts: at, id: id})
}

// Absorb folds the events of shards into t in canonical timeline order:
// a stable sort by (timestamp, pid, tid). A partitioned world records
// each partition into its own shard; because every (pid, tid) track is
// written by exactly one partition, the stable sort preserves per-track
// record order while interleaving tracks identically however the world
// was partitioned — the merged byte stream is a pure function of the
// simulation, not of -par N. Track names concatenate in shard order,
// which is partition order (itself rank order, fixed at construction).
// Absorbing into a flight ring keeps only the most recent events, as a
// single ring of the same size would. Absorbing t into itself is a no-op.
func (t *Tracer) Absorb(shards ...*Tracer) {
	if t == nil {
		return
	}
	var all []tevent
	for _, sh := range shards {
		if sh == nil || sh == t {
			continue
		}
		t.names = append(t.names, sh.names...)
		t.dropped += sh.dropped
		for i := 0; i < len(sh.events); i++ {
			all = append(all, sh.eventAt(i))
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.tid < b.tid
	})
	for _, e := range all {
		t.add(e)
	}
}

// Len returns the number of recorded events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteJSON writes this tracer's events as a Chrome trace-event JSON
// array.
func (t *Tracer) WriteJSON(w io.Writer) error { return WriteTrace(w, t) }

// WriteTrace writes one JSON trace combining several tracers (one per
// simulated world). Each tracer's pids are offset by its index so
// independent worlds render as separate process groups; tracers merge in
// argument order, so sweeps that collect per-world tracers in
// enumeration order emit identical bytes at any parallelism.
//
// Every record is append-encoded straight into the writer's free buffer
// (bufio.Writer.AvailableBuffer), so a trace of any length costs the one
// bufio buffer and no allocation per event.
func WriteTrace(w io.Writer, tracers ...*Tracer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	sep := "\n"
	// record returns the writer's free buffer holding the separator,
	// flushing first when a typical record might not fit in it. A write
	// error sticks in bw, and the final Flush returns it.
	record := func() []byte {
		if bw.Available() < 256 {
			bw.Flush()
		}
		b := append(bw.AvailableBuffer(), sep...)
		sep = ",\n"
		return b
	}
	for idx, t := range tracers {
		if t == nil {
			continue
		}
		// Offset keeps distinct worlds' pids disjoint; a single tracer
		// (idx 0) keeps its pids as recorded.
		off := idx << 16
		for _, n := range t.names {
			kind := `{"name":"thread_name","ph":"M","pid":`
			if n.process {
				kind = `{"name":"process_name","ph":"M","pid":`
			}
			b := append(record(), kind...)
			b = strconv.AppendInt(b, int64(n.pid+off), 10)
			if !n.process {
				b = append(b, `,"tid":`...)
				b = strconv.AppendInt(b, int64(n.tid), 10)
			}
			b = append(b, `,"args":{"name":`...)
			b = strconv.AppendQuote(b, n.name)
			bw.Write(append(b, "}}"...))
		}
		for i := 0; i < len(t.events); i++ {
			e := t.eventAt(i)
			b := append(record(), `{"name":`...)
			b = strconv.AppendQuote(b, e.name)
			if e.ph != 'C' {
				b = append(b, `,"cat":`...)
				b = strconv.AppendQuote(b, e.cat)
			}
			switch e.ph {
			case 'X':
				b = append(b, `,"ph":"X","ts":`...)
				b = appendUsec(b, e.ts)
				b = append(b, `,"dur":`...)
				b = appendUsec(b, e.dur)
			case 'i':
				b = append(b, `,"ph":"i","s":"t","ts":`...)
				b = appendUsec(b, e.ts)
			case 'C':
				b = append(b, `,"ph":"C","ts":`...)
				b = appendUsec(b, e.ts)
			case 's', 'f':
				if e.ph == 's' {
					b = append(b, `,"ph":"s","id":`...)
				} else {
					// bp:"e" binds the arrow to the enclosing span's end,
					// the Perfetto convention for flows landing mid-span.
					b = append(b, `,"ph":"f","bp":"e","id":`...)
				}
				b = strconv.AppendUint(b, e.id, 10)
				b = append(b, `,"ts":`...)
				b = appendUsec(b, e.ts)
			}
			b = append(b, `,"pid":`...)
			b = strconv.AppendInt(b, int64(e.pid+off), 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(e.tid), 10)
			if e.ph == 'C' {
				b = append(b, `,"args":{"v":`...)
				b = strconv.AppendInt(b, e.val, 10)
				b = append(b, '}')
			}
			bw.Write(append(b, '}'))
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// appendUsec appends a picosecond simulated time as the trace format's
// microsecond timestamp, exactly: whole microseconds, a point and six
// zero-padded fractional digits, no float rounding. Negative times
// render as 0.000000.
func appendUsec(b []byte, t sim.Time) []byte {
	if t < 0 {
		t = 0
	}
	b = strconv.AppendInt(b, int64(t/sim.Microsecond), 10)
	frac := int64(t % sim.Microsecond)
	b = append(b, '.', '0', '0', '0', '0', '0', '0')
	for i := len(b) - 1; frac > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	return b
}

// TraceEngine samples the engine's pending-event and executed-event
// counters onto tracer counter tracks every `every` of simulated time,
// under a reserved pid. Sampling re-arms only while events remain, so it
// never keeps a drained world alive. It costs nothing when t is nil.
func TraceEngine(eng *sim.Engine, t *Tracer, every sim.Time) {
	if t == nil || eng == nil {
		return
	}
	if every <= 0 {
		every = sim.Microsecond
	}
	const pid = 999
	t.NameProcess(pid, "sim-engine")
	var sample func()
	sample = func() {
		t.Count(pid, 0, "pending", eng.Now(), int64(eng.Pending()))
		t.Count(pid, 0, "executed", eng.Now(), int64(eng.Executed()))
		if eng.Alive() > 0 {
			eng.SchedulePoll(every, sample)
		}
	}
	eng.SchedulePoll(0, sample)
}
