package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// A WaitCondAny woken by s1 stays on s2's waiter list. Raising s2 while the
// process sleeps must not resume it: the sleep ends on its own timer.
func TestStaleSignalWakeDoesNotCutSleepShort(t *testing.T) {
	e := NewEngine()
	s1, s2 := NewSignal(e), NewSignal(e)
	var woke Time
	e.Spawn("p", func(p *Process) {
		p.WaitCondAny(s1, s2, func() bool { return p.Now() >= 10 })
		p.Sleep(100)
		woke = p.Now()
	})
	e.Schedule(10, s1.Raise)
	e.Schedule(50, s2.Raise)
	e.Run()
	if woke != 110 {
		t.Fatalf("sleep from 10ps for 100ps returned at %v, want %v", woke, Time(110))
	}
}

// TestSwitchesInlineSleep pins the resumes (Switches) and the goroutine
// transfers (Handoffs) of one sleeper alone and of two sleepers that
// always find the rival's wake pending first, under each driver.
func TestSwitchesInlineSleep(t *testing.T) {
	const n = 1000
	sleeper := func(p *Process) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
		}
	}
	run := (*Engine).Run
	runBefore := func(e *Engine) { e.RunBefore(maxTime) }
	step := func(e *Engine) {
		for e.Step() {
		}
	}
	for _, c := range []struct {
		name               string
		procs              int
		drive              func(e *Engine)
		switches, handoffs uint64
	}{
		// The start is the only resume, and every wake is taken inline:
		// one handoff out, and one home when the process ends.
		{"alone/Run", 1, run, 1, 2},
		{"alone/RunBefore", 1, runBefore, 1, 2},
		// A bare Step sets no loop bound, so it never inlines, and the
		// baton goes home at every park: two handoffs per resume.
		{"alone/Step", 1, step, n + 1, 2 * (n + 1)},
		// The rival's wake is always pending first: every Sleep parks, and
		// the parked process hands the baton straight to the rival — one
		// handoff per resume, and one home at the end.
		{"contended/Run", 2, run, 2 * (n + 1), 2*(n+1) + 1},
		{"contended/RunBefore", 2, runBefore, 2 * (n + 1), 2*(n+1) + 1},
		{"contended/Step", 2, step, 2 * (n + 1), 4 * (n + 1)},
	} {
		e := NewEngine()
		for i := 0; i < c.procs; i++ {
			e.Spawn(fmt.Sprint("p", i), sleeper)
		}
		c.drive(e)
		if got := e.Switches(); got != c.switches {
			t.Errorf("%s: %d switches, want %d", c.name, got, c.switches)
		}
		if got := e.Handoffs(); got != c.handoffs {
			t.Errorf("%s: %d handoffs, want %d", c.name, got, c.handoffs)
		}
		if got, want := e.Executed(), uint64(c.procs*(n+1)); got != want {
			t.Errorf("%s: executed %d, want %d", c.name, got, want)
		}
		if e.Now() != n*Nanosecond || e.LastModel() != n*Nanosecond {
			t.Errorf("%s: ended at %v (last model %v), want %v", c.name, e.Now(), e.LastModel(), Time(n*Nanosecond))
		}
	}
}

// A run loop that unwinds with a process panic must leave no horizon
// behind: a later bare Step still takes every wake through the queue.
func TestRunHorizonClearedOnPanic(t *testing.T) {
	for name, run := range map[string]func(e *Engine){
		"Run":       (*Engine).Run,
		"RunBefore": func(e *Engine) { e.RunBefore(maxTime) },
	} {
		e := NewEngine()
		e.Spawn("boom", func(p *Process) {
			p.Sleep(1)
			panic("boom")
		})
		func() {
			defer func() {
				if _, ok := recover().(*ProcessPanic); !ok {
					t.Errorf("%s: want a ProcessPanic", name)
				}
			}()
			run(e)
		}()
		before := e.Switches()
		e.Spawn("after", func(p *Process) {
			p.Sleep(1)
			p.Sleep(1)
		})
		for e.Step() {
		}
		if got := e.Switches() - before; got != 3 {
			t.Errorf("%s: bare Step after a panic made %d switches, want 3", name, got)
		}
	}
}

// Differential test of the run loops: seeded random process programs run
// once under bare Step — the reference: it never inlines a wake, and the
// baton returns home at every park — then under Run and under RunBefore
// windows of random width, where parked processes pass the baton among
// themselves and Sleep wakes may be taken inline. Every run must produce
// the reference's model trace, Executed, LastModel and end time, and its
// resumes plus its inline wakes must equal the reference's resumes.

const (
	opSleep = iota
	opRaise
	opWaitCond
	opWaitCondAny
	opWaitCondUntil
	opTimer    // cancellable timer
	opCancel   // cancel the oldest live timer of this process
	opDelivery // AtDelivery at now+d, then Sleep(d): wake and delivery share an instant
	opPoll
	opStop
	numOps
)

// Event sources other than processes, for the trace.
const (
	srcTicker = -1 - iota
	srcPoll
	srcFront
	srcTimer
	srcDelivery
)

type progOp struct {
	kind   int
	d, d2  Time
	s1, s2 int
}

type traceRec struct {
	at   Time
	who  int // process index, or a negative event source
	step int
}

type diffWorld struct {
	e      *Engine
	trace  []traceRec
	stopAt Time // time of the last Stop a driver has not yet checked; -1 if none
}

func (w *diffWorld) rec(who, step int) {
	w.trace = append(w.trace, traceRec{w.e.Now(), who, step})
}

// randDelay favours short delays, so that many sleeps end before the next
// pending event, and includes zero.
func randDelay(rng *rand.Rand) Time {
	if rng.Intn(4) == 0 {
		return Time(rng.Intn(80))
	}
	return Time(rng.Intn(6))
}

func genProgram(rng *rand.Rand, nsig int) []progOp {
	prog := make([]progOp, 10+rng.Intn(50))
	for i := range prog {
		// Half the ops sleep; Stop is rarer than the rest.
		o := progOp{kind: rng.Intn(numOps), d: randDelay(rng), d2: randDelay(rng), s1: rng.Intn(nsig), s2: rng.Intn(nsig)}
		if rng.Intn(2) == 0 || o.kind == opStop && rng.Intn(3) != 0 {
			o.kind = opSleep
		}
		prog[i] = o
	}
	return prog
}

// buildDiffWorld builds the world for seed. All randomness is drawn here,
// before the run, so every driver runs the same programs.
func buildDiffWorld(seed int64) *diffWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &diffWorld{e: NewEngine(), stopAt: -1}
	e := w.e
	sigs := make([]*Signal, 1+rng.Intn(3))
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	nproc := 1 + rng.Intn(4)
	running := nproc

	// The ticker raises every signal while processes remain, so each
	// time-bounded wait below ends.
	tickEvery := Time(20 + rng.Intn(200))
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		w.rec(srcTicker, ticks)
		for _, s := range sigs {
			s.Raise()
		}
		if running > 0 {
			e.Schedule(tickEvery, tick)
		}
	}
	e.Schedule(tickEvery, tick)

	if rng.Intn(2) == 0 {
		frontEvery := Time(1 + rng.Intn(100))
		fronts := 0
		var front func()
		front = func() {
			fronts++
			w.rec(srcFront, fronts)
			if e.Alive() > 0 {
				e.AtPollFront(e.Now()+frontEvery, front)
			}
		}
		e.AtPollFront(0, front)
	}

	polls, timers, deliveries := 0, 0, 0
	for i := 0; i < nproc; i++ {
		i, prog := i, genProgram(rng, len(sigs))
		e.Spawn(fmt.Sprint("p", i), func(p *Process) {
			var live []EventID
			var dseq uint64
			for k, o := range prog {
				step := k
				until := p.Now() + o.d
				cond := func() bool { return p.Now() >= until }
				switch o.kind {
				case opSleep:
					p.Sleep(o.d)
				case opRaise:
					sigs[o.s1].Raise()
				case opWaitCond:
					p.WaitCond(sigs[o.s1], cond)
				case opWaitCondAny:
					p.WaitCondAny(sigs[o.s1], sigs[o.s2], cond)
				case opWaitCondUntil:
					if !p.WaitCondUntil(sigs[o.s1], cond, o.d2) {
						step = -k
					}
				case opTimer:
					live = append(live, e.ScheduleCancellable(o.d, func() {
						timers++
						w.rec(srcTimer, timers)
					}))
				case opCancel:
					if len(live) > 0 {
						e.Cancel(live[0])
						live = live[1:]
					}
				case opDelivery:
					dseq++
					s := sigs[o.s1]
					e.AtDelivery(until, uint32(i), dseq, func() {
						deliveries++
						w.rec(srcDelivery, deliveries)
						s.Raise()
					})
					p.Sleep(o.d)
				case opPoll:
					e.SchedulePoll(o.d, func() {
						polls++
						w.rec(srcPoll, polls)
					})
				case opStop:
					w.stopAt = p.Now()
					e.Stop()
				}
				w.rec(i, step)
			}
			running--
		})
	}
	return w
}

// checkStop verifies that a run loop Stop returned from came back at the
// stopping event's instant: no Sleep after the Stop was taken inline.
func (w *diffWorld) checkStop(t *testing.T, name string) {
	if w.stopAt < 0 {
		return
	}
	if w.e.Now() != w.stopAt {
		t.Errorf("%s: Stop at %v, but the run loop returned at %v", name, w.stopAt, w.e.Now())
	}
	w.stopAt = -1
}

func TestInlineWakeDifferential(t *testing.T) {
	// Each driver returns how many times it started a run loop.
	drivers := []struct {
		name  string
		drive func(t *testing.T, w *diffWorld, rng *rand.Rand) uint64
	}{
		{"Run", func(t *testing.T, w *diffWorld, _ *rand.Rand) uint64 {
			var loops uint64
			for w.e.Pending() > 0 {
				w.e.Run()
				loops++
				w.checkStop(t, "Run")
			}
			return loops
		}},
		{"RunBefore", func(t *testing.T, w *diffWorld, rng *rand.Rand) uint64 {
			var loops uint64
			maxWidth := 1 + rng.Intn(200)
			var h Time
			for w.e.Pending() > 0 {
				h += Time(1 + rng.Intn(maxWidth))
				w.e.RunBefore(h)
				loops++
				if w.e.Now() >= h {
					t.Errorf("RunBefore(%v) returned at %v", h, w.e.Now())
				}
				w.checkStop(t, "RunBefore")
			}
			return loops
		}},
	}
	const seeds = 300
	var refSwitches, fastSwitches, fastHandoffs uint64
	for seed := int64(1); seed <= seeds; seed++ {
		ref := buildDiffWorld(seed)
		for ref.e.Step() {
		}
		refSwitches += ref.e.Switches()
		if ref.e.inlined != 0 || ref.e.Handoffs() != 2*ref.e.Switches() {
			t.Fatalf("seed %d, bare Step: %d inline wakes, %d handoffs for %d switches; want none and two per switch",
				seed, ref.e.inlined, ref.e.Handoffs(), ref.e.Switches())
		}
		for _, d := range drivers {
			w := buildDiffWorld(seed)
			loops := d.drive(t, w, rand.New(rand.NewSource(-seed)))
			if d.name == "Run" {
				fastSwitches += w.e.Switches()
				fastHandoffs += w.e.Handoffs()
			}
			where := fmt.Sprintf("seed %d, %s", seed, d.name)
			if len(w.trace) != len(ref.trace) {
				t.Fatalf("%s: %d trace records, reference has %d", where, len(w.trace), len(ref.trace))
			}
			for i := range ref.trace {
				if w.trace[i] != ref.trace[i] {
					t.Fatalf("%s: trace record %d is %+v, reference has %+v", where, i, w.trace[i], ref.trace[i])
				}
			}
			if w.e.Executed() != ref.e.Executed() || w.e.LastModel() != ref.e.LastModel() || w.e.Now() != ref.e.Now() {
				t.Fatalf("%s: executed %d, last model %v, now %v; reference %d, %v, %v", where,
					w.e.Executed(), w.e.LastModel(), w.e.Now(), ref.e.Executed(), ref.e.LastModel(), ref.e.Now())
			}
			if got := w.e.Switches() + w.e.inlined; got != ref.e.Switches() {
				t.Fatalf("%s: %d switches + %d inline wakes, reference has %d switches", where,
					w.e.Switches(), w.e.inlined, ref.e.Switches())
			}
			// Every handoff either resumes a process or ends a loop.
			if h, max := w.e.Handoffs(), w.e.Switches()+loops; h > max {
				t.Fatalf("%s: %d handoffs for %d switches over %d loops", where, h, w.e.Switches(), loops)
			}
			if n := w.e.ParkedProcs(); n != 0 {
				t.Fatalf("%s: %d processes still parked", where, n)
			}
		}
	}
	// The programs must actually exercise the inline path.
	if fastSwitches >= refSwitches {
		t.Fatalf("Run made %d switches over %d seeds, bare Step %d: no wake was taken inline", fastSwitches, seeds, refSwitches)
	}
	t.Logf("over %d seeds: bare Step %d switches, %d handoffs; Run %d switches, %d handoffs",
		seeds, refSwitches, 2*refSwitches, fastSwitches, fastHandoffs)
}
