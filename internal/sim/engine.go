package sim

import (
	"fmt"
	"math"
	"runtime"
)

// EventID identifies a cancellable scheduled event (see ScheduleCancellable).
type EventID uint64

// maxTime is the largest representable timestamp; the partition runner uses
// it as the "no event pending" sentinel.
const maxTime = Time(math.MaxInt64)

// Event ordering is a composite key (at, k1, k2). Ordinary events carry
// k1 = 0 and k2 = schedule sequence, which reproduces the classic
// "same-instant events fire in schedule order" rule exactly. Cross-rank
// delivery events (AtDelivery) carry k1 = deliveryClass | source endpoint
// and k2 = the per-source delivery sequence, so that at any instant:
//
//   - all ordinary local events fire before any network delivery, and
//   - concurrent deliveries fire in (source, per-source sequence) order,
//
// neither of which depends on how the world is partitioned. This canonical
// tie-break is what keeps partitioned runs byte-identical at any -par N.
const deliveryClass = uint64(1) << 32

type event struct {
	at  Time
	k1  uint64 // 0 for ordinary events; deliveryClass|src for deliveries
	k2  uint64 // schedule seq (ordinary) or per-source delivery seq
	fn  func()
	id  EventID // non-zero only for cancellable events
	idx int     // index in heap, -1 when popped or cancelled

	// A process wake carries its target instead of fn (see wake): proc
	// resumes from the park whose generation is gen.
	proc   *Process
	gen    uint64
	signal bool

	poll bool // housekeeping observer, excluded from LastModel
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

// eventHeap is a binary min-heap on eventLess. Every event records its
// slot in idx (-1 once popped or removed) so Cancel can remove it in
// O(log n). Every key is unique — seq is unique for ordinary events,
// (src, dseq) for deliveries, and at most one front poll is pending per
// instant — so the order in which events pop is a function of the keys
// alone, never of the heap layout. The sift loops follow container/heap's
// comparisons move for move; TestEventHeapMatchesContainerHeap replays
// mixes of every scheduling path against it.
type eventHeap []*event

// push inserts ev.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.down(0, last)
	}
	top.idx = -1
	return top
}

// remove deletes the event in slot i.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	ev, last := q[i], q[n]
	q[n] = nil
	*h = q[:n]
	if i < n && !h.down(i, last) {
		h.up(i, last)
	}
	ev.idx = -1
}

// up places ev, whose slot is i, on the path from i to the root: each
// parent that sorts after it moves down one level.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		parent := (i - 1) / 2
		pe := h[parent]
		if !eventLess(ev, pe) {
			break
		}
		h[i], pe.idx = pe, i
		i = parent
	}
	h[i], ev.idx = ev, i
}

// down places ev, whose slot is i, below i: the earlier child moves up
// while it sorts before ev. It reports whether ev left slot i.
func (h eventHeap) down(i int, ev *event) bool {
	i0, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(h[r], h[c]) {
			c = r
		}
		ce := h[c]
		if !eventLess(ce, ev) {
			break
		}
		h[i], ce.idx = ce, i
		i = c
	}
	h[i], ev.idx = ev, i
	return i > i0
}

// arenaBlock is how many event objects one arena allocation holds. Blocks
// feed the free list in bulk, so event allocation never goes through the
// allocator one object at a time even on cold queues.
const arenaBlock = 256

// Engine is the discrete event simulation kernel. It is not safe for
// concurrent use: exactly one goroutine holds the engine (the "baton") at
// a time, and that goroutine pops and runs its events. The holder is the
// goroutine that called Run, RunBefore, Step or Close (its "home") or a
// co-simulated process (see Process) that has parked. A holder runs
// ordinary events inline, keeps running when the next wake is its own,
// and hands the baton straight to the process a wake resumes — one
// channel send. When the loop ends (Stop, an empty queue, the RunBefore
// horizon, or after the one event of a bare Step) the baton returns home
// through the home channel, and a failure raised on a process goroutine
// travels with it and is re-raised there. Which goroutine runs an event
// never changes the order in which events pop.
//
// Distinct Engines are fully independent, so whole worlds may run on
// parallel goroutines (see internal/sweep) and a single world may be split
// across per-partition engines (see PartitionSet).
//
// The event queue is a typed binary heap (eventHeap) ordered by the
// composite key above.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	nextID  EventID
	byID    map[EventID]*event // lazily allocated; cancellable events only
	free    []*event           // recycled event objects (hot-path fast path)
	arena   []event            // current arena block feeding the free path
	stopped bool

	// last is the latest event time the active loop may pop: maxTime
	// under Run, t-1 under RunBefore(t), -1 when no loop is active (a
	// bare Step pops its one event itself). It also bounds inline wakes
	// (see inlineWake).
	last Time

	// home carries the baton back to the goroutine that called Run,
	// RunBefore, Step or Close.
	home chan struct{}

	// failure is a panic value that ended the loop on a process
	// goroutine — a *ProcessPanic, or the raw value of a failing event
	// function — or goexit{} for an event function that called
	// runtime.Goexit. It travels home with the baton and is re-raised
	// there.
	failure any

	// Stats.
	executed uint64
	switches uint64 // resumes of co-simulated processes
	handoffs uint64 // baton transfers between goroutines
	inlined  uint64 // Sleep wakes and Advance steps taken inline (see inlineWake)

	// pollers counts pending housekeeping events scheduled with
	// SchedulePoll — watchdog checks, telemetry samplers. They are
	// excluded from Alive so that pollers watching each other cannot keep
	// a drained world running forever.
	pollers int

	// lastModel is the timestamp of the latest executed event that models
	// the world (every event except poll-class housekeeping). It is a pure
	// function of the modelled event set, so it is identical for the same
	// world at any partitioning — the property the time-series sampler
	// relies on to pad every shard to the same canonical sample count.
	lastModel Time

	procs []*Process
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{last: -1, home: make(chan struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far. A Sleep wake or an
// Advance step taken inline counts as the event it stands for.
func (e *Engine) Executed() uint64 { return e.executed }

// Switches reports how many times a co-simulated process has been
// resumed: each start and each wake that ends a park, whether it runs on
// the process's own goroutine or is handed to it. A Sleep wake taken
// inline costs none.
func (e *Engine) Switches() uint64 { return e.switches }

// Handoffs reports how many times the baton has moved between goroutines:
// to a process whose wake was popped elsewhere, or back home when a loop
// ends. A resume popped by the process itself costs none. Close's
// teardown is not counted.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// alloc takes an event object off the free list, refilling it from the
// arena when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.arena) == 0 {
		e.arena = make([]event, arenaBlock)
	}
	ev := &e.arena[0]
	e.arena = e.arena[1:]
	return ev
}

// push stamps a fresh ordinary event and inserts it into the queue.
func (e *Engine) push(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.k1, ev.k2, ev.fn, ev.id, ev.poll = t, 0, e.seq, fn, 0, false
	e.events.push(ev)
	return ev
}

// wake schedules an ordinary event after delay d that resumes p from its
// current park. It takes the schedule sequence number Schedule would, and
// allocates nothing: the event object itself carries p and its generation.
func (e *Engine) wake(d Time, p *Process, signal bool) {
	ev := e.push(e.now+d, nil)
	ev.proc, ev.gen, ev.signal = p, p.gen, signal
}

// recycle returns a popped or cancelled event object to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.proc = nil, nil
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay d. A negative delay is an error in the model,
// so it panics rather than silently reordering time. The event cannot be
// cancelled — this is the allocation-free hot path; use ScheduleCancellable
// for timeouts and other maybe-revoked work.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	e.push(e.now+d, fn)
}

// At runs fn at absolute time t (>= Now). Like Schedule, the event cannot
// be cancelled.
func (e *Engine) At(t Time, fn func()) {
	e.push(t, fn)
}

// AtDelivery schedules a cross-rank packet delivery at absolute time t.
// Deliveries order canonically by (t, src, dseq) after every ordinary event
// at the same instant, regardless of when or from which partition they were
// scheduled — see the deliveryClass comment. src is the sending endpoint,
// dseq its per-source delivery sequence (strictly increasing at the sender).
func (e *Engine) AtDelivery(t Time, src uint32, dseq uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: delivery into the past: %v < %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.k1, ev.k2, ev.fn, ev.id, ev.poll = t, deliveryClass|uint64(src), dseq, fn, 0, false
	e.events.push(ev)
}

// ScheduleCancellable is Schedule for events that may later be revoked with
// Cancel. It registers the event in the id table, which the plain
// Schedule/At fast path skips entirely.
func (e *Engine) ScheduleCancellable(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	return e.AtCancellable(e.now+d, fn)
}

// AtCancellable is At for events that may later be revoked with Cancel.
func (e *Engine) AtCancellable(t Time, fn func()) EventID {
	ev := e.push(t, fn)
	e.nextID++
	ev.id = e.nextID
	if e.byID == nil {
		e.byID = make(map[EventID]*event)
	}
	e.byID[ev.id] = ev
	return ev.id
}

// Cancel removes a pending cancellable event. Cancelling an event that
// already fired or was already cancelled is a no-op and reports false.
func (e *Engine) Cancel(id EventID) bool {
	ev, ok := e.byID[id]
	if !ok {
		return false
	}
	delete(e.byID, id)
	if ev.idx >= 0 {
		e.events.remove(ev.idx)
	}
	e.recycle(ev)
	return true
}

// Pending reports the number of scheduled (live) events.
func (e *Engine) Pending() int {
	return len(e.events)
}

// PeekTime reports the timestamp of the earliest pending event, or ok=false
// when the queue is empty. It does not advance the clock.
func (e *Engine) PeekTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// ParkedProcs reports how many co-simulated processes are suspended
// waiting for a wake event. The partition runner uses it to tell an inert
// partition (drained, every rank exited) from a merely quiet one whose
// parked ranks an injected delivery could still wake into sending.
func (e *Engine) ParkedProcs() int {
	n := 0
	for _, p := range e.procs {
		if p.parked && !p.done {
			n++
		}
	}
	return n
}

// SchedulePoll is Schedule for self-re-arming housekeeping events that
// observe the world rather than model it. Pollers must re-arm only while
// Alive() > 0; the bookkeeping lives in the wrapper closure, so the
// Step/Schedule hot path is untouched.
func (e *Engine) SchedulePoll(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	e.pollers++
	ev := e.push(e.now+d, func() {
		e.pollers--
		fn()
	})
	ev.poll = true
}

// AtPollFront schedules a front-class poll at absolute time t (>= Now): it
// carries the zero tie-break key (k1 = 0, k2 = 0), sorting before every
// ordinary event (k2 >= 1) and every delivery (k1 >= deliveryClass) at the
// same instant. A front poll therefore observes the
// world exactly as left by the events strictly before t — a state that does
// not depend on how the world is partitioned. At most one front poll may be
// pending per engine at any one instant (two would tie ambiguously); the
// time-series sampler, its only client, re-arms a single chain of them.
// Front polls are housekeeping: counted in pollers, excluded from Alive and
// from LastModel.
func (e *Engine) AtPollFront(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: front poll into the past: %v < %v", t, e.now))
	}
	ev := e.alloc()
	e.pollers++
	ev.at, ev.k1, ev.k2, ev.id, ev.poll = t, 0, 0, 0, true
	ev.fn = func() {
		e.pollers--
		fn()
	}
	e.events.push(ev)
}

// LastModel reports the timestamp of the latest executed modelled event
// (polls excluded). For one world split across per-partition engines, the
// maximum of LastModel over the engines is the world's end-of-model time,
// identical at any -par N.
func (e *Engine) LastModel() Time { return e.lastModel }

// Alive reports the pending events that represent modelled work —
// Pending minus outstanding pollers. When it reaches zero nothing can
// ever happen again in the world, no matter how long pollers poll.
func (e *Engine) Alive() int { return e.Pending() - e.pollers }

// Step executes the single earliest event. It reports false when no events
// remain. If the event resumes a process, the baton returns home the
// moment that process parks again.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	if p := e.fire(); p != nil {
		e.await(p)
	}
	return true
}

// fire pops the earliest event and executes it on the calling goroutine:
// it runs an ordinary event's function, or takes a wake and returns the
// process it resumes. A stale wake is dropped and returns nil.
func (e *Engine) fire() *Process {
	ev := e.events.pop()
	if ev.id != 0 {
		delete(e.byID, ev.id)
	}
	if ev.at < e.now {
		panic("sim: event queue corrupted")
	}
	e.now = ev.at
	if !ev.poll {
		e.lastModel = ev.at
	}
	e.executed++
	// Recycle before running the event: it may schedule new events, which
	// can legitimately reuse this object, while the locals stay valid.
	fn, p, gen, signal := ev.fn, ev.proc, ev.gen, ev.signal
	e.recycle(ev)
	if p == nil {
		fn()
		return nil
	}
	// A wake is stale once its process has finished or been woken by
	// another event (its generation advanced) — a process may be the
	// target of both a timer and a signal broadcast. A signal wake is also
	// dropped while its process sleeps: a waiter list can hold a process
	// that has since moved on (WaitCondAny leaves it on the signal that did
	// not fire), and that wake must not cut a Sleep short.
	if p.done || !p.parked || p.gen != gen || signal && p.asleep {
		return nil
	}
	p.parked = false
	p.gen++
	e.switches++
	return p
}

// next runs events on the calling goroutine, in queue order, until a wake
// resumes a process, which it returns, or the active loop ends — Stop, an
// empty queue or a head past last — when it returns nil.
func (e *Engine) next() *Process {
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= e.last {
		if p := e.fire(); p != nil {
			return p
		}
	}
	return nil
}

// await hands the baton from home to p and blocks until it comes back,
// re-raising the failure that came with it, if any.
func (e *Engine) await(p *Process) {
	e.handoffs++
	p.resume <- struct{}{}
	<-e.home
	if f := e.failure; f != nil {
		e.failure = nil
		if _, ok := f.(goexit); ok {
			runtime.Goexit()
		}
		panic(f)
	}
}

// goexit marks a failure raised by runtime.Goexit in an event function
// that ran on a process goroutine: home calls runtime.Goexit in turn, as
// the event would have if it had run there.
type goexit struct{}

// pass runs the loop on self's goroutine, which holds the baton because
// self has parked or finished. It returns when self's own wake is taken:
// at once if that is the next wake, or else once the baton, handed on to
// another process or home, comes back with it. A finished self returns as
// soon as the baton has left. An event function that fails here is
// forwarded home (see fail) instead of unwinding self.
func (e *Engine) pass(self *Process) {
	handed := false
	defer func() {
		if !handed {
			e.fail(self, recover())
		}
	}()
	q := e.next()
	handed = true
	if q == self {
		return
	}
	done := self.done
	e.handoffs++
	if q == nil {
		e.home <- struct{}{}
	} else {
		q.resume <- struct{}{}
	}
	if !done {
		<-self.resume
	}
}

// fail sends home the failure r (nil for runtime.Goexit) of an event
// function that ran in pass on self's goroutine. A recovered panic leaves
// self parked, as if the event had run at home: self blocks until a later
// wake or Close resumes it. Goexit cannot be stopped, so a parked self
// unwinds under the kill mark, and its exit (Process.finish) hands the
// baton home.
func (e *Engine) fail(self *Process, r any) {
	e.handoffs++
	done := self.done
	if r != nil {
		e.failure = r
	} else {
		e.failure = goexit{}
		if !done {
			self.killed = true
			return
		}
	}
	e.home <- struct{}{}
	if !done {
		<-self.resume
	}
}

// inlineWake reports whether an ordinary event scheduled now for t would
// be the next one the active run loop pops, and if so advances exactly
// what push and fire would have (sequence, clock, LastModel, Executed)
// without touching the queue. That holds when t is within the loop's
// bound, Stop has not been called, and no pending event sorts before
// (t, 0, seq+1): the head is later than t, or a delivery at t.
func (e *Engine) inlineWake(t Time) bool {
	if t > e.last || e.stopped {
		return false
	}
	if len(e.events) > 0 {
		if h := e.events[0]; h.at < t || h.at == t && h.k1 < deliveryClass {
			return false
		}
	}
	e.seq++
	e.now, e.lastModel = t, t
	e.executed++
	e.inlined++
	return true
}

// Advance is Schedule for the timed step of a model written as a state
// machine rather than a process: it runs the step fn after delay d. When
// that event would be the next one the active Run or RunBefore pops, it
// is taken inline, as a process's Sleep would take its wake: the clock
// and counters advance as the event would advance them, nothing is
// queued, and Advance reports true; the caller then runs the step itself,
// at once. Otherwise Advance schedules fn and reports false. Under a bare
// Step, or once Stop is called, the step always goes through the queue.
func (e *Engine) Advance(d Time, fn func()) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", d, e.now))
	}
	if e.inlineWake(e.now + d) {
		return true
	}
	e.push(e.now+d, fn)
	return false
}

// Run executes events until none remain or Stop is called. While it runs,
// a process's Sleep whose wake is the next event continues inline (see
// Process.Sleep); the order of events is the one Step alone produces.
func (e *Engine) Run() {
	e.run(maxTime)
}

// RunBefore executes events with timestamps strictly below t and returns.
// It does not advance the clock to t — the partition runner calls it
// repeatedly with growing conservative horizons, and the clock must
// stay at the last executed event so late-injected deliveries (which are
// guaranteed to land at or after it) remain schedulable. t is also the
// bound below which Sleep wakes may be taken inline.
func (e *Engine) RunBefore(t Time) {
	e.run(t - 1)
}

// run is the loop of Run and RunBefore: it pops every event up to last
// and returns when the baton is home again.
func (e *Engine) run(last Time) {
	e.stopped = false
	e.last = last
	defer e.endRun()
	if p := e.next(); p != nil {
		e.await(p)
	}
}

// endRun ends the active loop on every exit from Run and RunBefore, panics
// included, so a bare Step pops one event and never takes a wake inline.
func (e *Engine) endRun() { e.last = -1 }

// Stop makes Run/RunBefore return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Close unwinds every process that is not done, so a finished world
// keeps no parked goroutine and nothing it references reachable. Each
// process is resumed with its kill mark set: a parked one exits its park
// through runtime.Goexit, running its deferred calls, and one that never
// started exits without running its function; either hands the baton
// back home as its goroutine ends. Close must be called with the engine
// quiescent (no Run, RunBefore or Step in progress). It counts no
// switches or handoffs and leaves the clock, the counters and the queue
// as they were; a panic raised during the unwinding is dropped, so a
// Close deferred behind a failing run never replaces its panic.
// Idempotent.
func (e *Engine) Close() {
	for _, p := range e.procs {
		if p.done || !p.parked {
			continue
		}
		p.killed = true
		p.resume <- struct{}{}
		<-e.home
	}
	e.procs = nil
	e.failure = nil
}
