package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// ProcessPanic is the value re-raised on the home goroutine (the caller of
// Run, RunBefore or Step) when a co-simulated process panics. Without this
// hand-off the panic would unwind a bare goroutine and abort the whole
// program — with it, the panic propagates out of Engine.Run on the
// caller's goroutine, where a sweep worker (internal/sweep) can recover it
// and fail just that world. A panic in an event function that a parked
// process happened to run is not a ProcessPanic: it reaches the caller
// with its own value (see Engine).
type ProcessPanic struct {
	Proc  string // name of the process that panicked
	Value any    // the original panic value
	Stack []byte // stack of the panicking process goroutine
}

func (pp *ProcessPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Process is a co-simulated thread of control: a plain Go function that
// consumes simulated time through Sleep/WaitSignal calls. The paper's NIC
// firmware loop and the MPI application ranks both run as Processes, which
// lets them be written as straight-line code instead of hand-built state
// machines while staying deterministic.
//
// Exactly one goroutine holds the engine at any instant. A process holds
// it from its resume until it parks (in Sleep or a signal wait) or
// returns; it then runs the event loop itself until the baton moves on
// (see Engine), and blocks on its resume channel until a wake resumes it.
type Process struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   bool
	killed bool   // resumed by Engine.Close: unwind instead of running on
	parked bool   // true while suspended awaiting a wake event
	asleep bool   // parked in Sleep: only its own timer may resume it
	gen    uint64 // increments on every wake; stale wake events are dropped
}

// Spawn starts fn as a co-simulated process at the current simulated time.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		parked: true,
	}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		// finish runs via defer so that the baton moves on even if fn
		// unwinds via runtime.Goexit (e.g. t.Fatal inside a test-driver
		// process, or Engine.Close).
		defer p.finish()
		// A process closed before its first wake never starts.
		if !p.killed {
			fn(p)
		}
	}()
	e.wake(0, p, false)
	return p
}

// finish is the exit path of a process goroutine. A process killed by
// Close hands the baton straight home; a panic is captured and sent home
// as a ProcessPanic; otherwise (fn returned, or unwound through Goexit —
// recover returns nil for that) the finished process runs the loop until
// the baton leaves it.
func (p *Process) finish() {
	r := recover()
	p.done = true
	e := p.eng
	switch {
	case p.killed:
		e.home <- struct{}{}
	case r != nil:
		e.failure = &ProcessPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		e.handoffs++
		e.home <- struct{}{}
	default:
		e.pass(p)
	}
}

// park suspends the process until a wake for its current generation is
// taken. It must only be called from inside the process goroutine. The
// process runs the event loop meanwhile (see Engine.pass). A resume from
// Engine.Close unwinds the process with runtime.Goexit: its deferred calls
// run, and finish returns the baton home.
func (p *Process) park() {
	p.parked = true
	p.eng.pass(p)
	if p.killed {
		runtime.Goexit()
	}
}

// Name returns the name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Done reports whether the process has finished: its function returned
// or unwound, or Engine.Close ended it.
func (p *Process) Done() bool { return p.done }

// Sleep advances the process's local time by d, yielding to the simulation.
// Sleep(0) yields without advancing time (other events at the same instant
// that were scheduled earlier run first).
//
// When the wake would be the very next event the active Run or RunBefore
// pops, nothing can run in between, so Sleep takes it inline: the clock,
// counters and generation advance as the real wake would advance them, and
// the process keeps running without touching the queue. Under a bare Step,
// or once Stop is called, every wake goes through the queue.
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	if p.eng.inlineWake(p.eng.now + d) {
		p.gen++
		return
	}
	p.asleep = true
	p.eng.wake(d, p, false)
	p.park()
	p.asleep = false
}

// WaitSignal parks the process until s is raised. If s is already raised the
// process consumes the signal level semantics described on Signal and
// continues without yielding.
func (p *Process) WaitSignal(s *Signal) {
	for !s.TestClear() {
		s.addWaiter(p)
		p.park()
	}
}

// WaitCond parks the process, re-testing cond each time s is raised, until
// cond is true. cond is also tested immediately.
func (p *Process) WaitCond(s *Signal, cond func() bool) {
	for !cond() {
		s.addWaiter(p)
		p.park()
	}
}

// WaitCondAny parks the process, re-testing cond each time either signal
// is raised, until cond is true. cond is also tested immediately. The
// process joins both waiter lists; whichever Raise comes first wakes it,
// and the other signal's wake is dropped by the generation guard. The
// process stays on the other signal's list; a later Raise of it wakes the
// process only if it is then parked in a signal wait, never out of a Sleep.
func (p *Process) WaitCondAny(s1, s2 *Signal, cond func() bool) {
	for !cond() {
		s1.addWaiter(p)
		s2.addWaiter(p)
		p.park()
	}
}

// WaitCondUntil behaves like WaitCond but gives up after d simulated time.
// It reports whether cond held (true) or the deadline expired first (false).
// cond is tested immediately; a zero or negative d degenerates to that
// single test. The deadline timer is cancellable, so a satisfied wait leaves
// no stray event behind — the world can still drain to quiescence.
func (p *Process) WaitCondUntil(s *Signal, cond func() bool, d Time) bool {
	if cond() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := p.Now() + d
	expired := false
	id := p.eng.ScheduleCancellable(d, func() {
		expired = true
		s.Raise()
	})
	for !cond() {
		if expired || p.Now() >= deadline {
			return false
		}
		s.addWaiter(p)
		p.park()
	}
	if !expired {
		p.eng.Cancel(id)
	}
	return true
}

// Signal is a wakeup flag processes can block on. Raise stores a level (so a
// Raise with no waiter is not lost) and wakes all current waiters at the
// same simulated instant. It is the moral equivalent of the "FIFO became
// non-empty" wires between the paper's hardware units.
//
// A waiter is a parked process or a function (Notify): a hardware model
// written as a state machine registers the function that steps it. Both
// kinds share one list, so they fire in registration order.
type Signal struct {
	eng     *Engine
	raised  bool
	waiters []*Process // registration order; nil stands for the next of fns
	// fns holds the function waiters in registration order. The first
	// Notify makes it, so a signal that only processes wait on keeps its
	// size and one-word waiter entries.
	fns *[]func()
}

// NewSignal returns a lowered signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Raise sets the signal level and schedules one event per waiter at the
// current instant, in registration order: a process's wake, or a call of
// the function. Each takes the schedule sequence number Schedule would.
func (s *Signal) Raise() {
	s.raised = true
	next := 0
	for _, p := range s.waiters {
		if p != nil {
			s.eng.wake(0, p, true)
			continue
		}
		s.eng.push(s.eng.now, (*s.fns)[next])
		next++
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	if next > 0 {
		clear(*s.fns)
		*s.fns = (*s.fns)[:0]
	}
}

// TestClear reports whether the signal was raised, clearing it.
func (s *Signal) TestClear() bool {
	r := s.raised
	s.raised = false
	return r
}

// Notify registers fn to run, as its own event, at the next Raise. The
// registration is used once: a function that wants to keep waiting
// registers again. Notify neither reads nor clears the level. fn should be
// a value made once (a method value bound at construction), so that a
// warm wait allocates nothing.
func (s *Signal) Notify(fn func()) {
	if s.fns == nil {
		s.fns = new([]func())
	}
	s.waiters = append(s.waiters, nil)
	*s.fns = append(*s.fns, fn)
}

func (s *Signal) addWaiter(p *Process) { s.waiters = append(s.waiters, p) }
