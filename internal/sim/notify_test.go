package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// TestNotifyFiresInRegistrationOrder: process and function waiters share
// one list, and a Raise schedules one event per waiter in the order they
// registered, ahead of anything scheduled after the Raise.
func TestNotifyFiresInRegistrationOrder(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	raised := false
	wait := func(name string, at Time) {
		e.Spawn(name, func(p *Process) {
			p.Sleep(at)
			p.WaitCond(s, func() bool { return raised })
			order = append(order, name)
		})
	}
	wait("p1", 0)
	e.Schedule(1, func() { s.Notify(log("f1")) })
	wait("p2", 2)
	e.Schedule(3, func() { s.Notify(log("f2")) })
	e.Schedule(4, func() {
		raised = true
		before := e.Pending()
		s.Raise()
		if got := e.Pending() - before; got != 4 {
			t.Errorf("Raise scheduled %d events, want one per waiter (4)", got)
		}
		e.Schedule(0, log("after"))
	})
	e.Run()
	if got, want := fmt.Sprint(order), "[p1 f1 p2 f2 after]"; got != want {
		t.Errorf("fired %s, want %s", got, want)
	}
}

// TestNotifyTakesTheWakeSequence: a function waiter's event takes the
// sequence number a process's signal wake would take at the same point,
// so swapping one for the other changes neither the order nor the count
// of events.
func TestNotifyTakesTheWakeSequence(t *testing.T) {
	run := func(asProcess bool) (string, uint64) {
		e := NewEngine()
		s := NewSignal(e)
		var order []string
		log := func(name string) func() { return func() { order = append(order, name) } }
		if asProcess {
			e.Spawn("waiter", func(p *Process) {
				p.WaitSignal(s)
				order = append(order, "waiter")
			})
		} else {
			// The start event a Spawn would schedule.
			e.Schedule(0, func() { s.Notify(log("waiter")) })
		}
		e.Schedule(5, log("before"))
		e.Schedule(5, func() {
			s.Raise()
			e.Schedule(0, log("after"))
		})
		e.Schedule(5, log("queued"))
		e.Run()
		return fmt.Sprint(order), e.Executed()
	}
	po, pn := run(true)
	fo, fn := run(false)
	if po != fo || pn != fn {
		t.Errorf("function waiter: %s in %d events, process waiter: %s in %d", fo, fn, po, pn)
	}
	if want := "[before queued waiter after]"; fo != want {
		t.Errorf("fired %s, want %s", fo, want)
	}
}

// TestNotifyKeepsTheLevel: a Raise with no waiter keeps its level, and a
// function registered after it neither runs nor consumes the level.
func TestNotifyKeepsTheLevel(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	s.Raise()
	ran := false
	s.Notify(func() { ran = true })
	e.Run()
	if ran {
		t.Error("a function registered after the Raise ran")
	}
	if !s.TestClear() {
		t.Error("the level of a Raise with no waiter was lost")
	}
	s.Raise()
	e.Run()
	if !ran {
		t.Error("the registered function did not run at the next Raise")
	}
}

// TestNotifyPanicOnProcessGoroutine: a function waiter that panics while
// a parked process runs the loop reaches the Run caller with its own
// value, not as that process's ProcessPanic.
func TestNotifyPanicOnProcessGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	s := NewSignal(e)
	var woke Time
	spawnHolder(e, &woke)
	onProc := false
	s.Notify(func() {
		onProc = onProcessGoroutine()
		panic("waiter boom")
	})
	e.Schedule(5, s.Raise)
	func() {
		defer func() {
			if r := recover(); r != "waiter boom" {
				t.Errorf("Run raised %#v, want the waiter's own value %q", r, "waiter boom")
			}
		}()
		e.Run()
	}()
	if !onProc {
		t.Fatal("the waiter did not run on the holder's goroutine")
	}
	e.Run()
	if woke != 10 {
		t.Errorf("holder woke at %v, want 10ps", woke)
	}
	e.Close()
	settleGoroutines(t, base)
}

// advancer is TestAdvance's state machine: four steps 10ps apart, each
// logged, the last followed by one more Advance, like a process that
// sleeps after each step.
type advancer struct {
	e      *Engine
	left   int
	stepFn func()
	order  []string
	inline int
}

func (m *advancer) step() {
	for m.left > 0 {
		m.order = append(m.order, fmt.Sprint("step@", m.e.Now()))
		m.left--
		if !m.e.Advance(10, m.stepFn) {
			return
		}
		m.inline++
	}
}

// TestAdvance: a step whose event would be the next one popped runs
// inline under Run, counted as the event it stands for; one that another
// event precedes, or any step under a bare Step, goes through the queue.
// Either way the steps interleave with other events, and count, exactly
// as a process's Sleeps would.
func TestAdvance(t *testing.T) {
	ref := NewEngine()
	var refOrder []string
	ref.Spawn("sleeper", func(p *Process) {
		for i := 0; i < 4; i++ {
			refOrder = append(refOrder, fmt.Sprint("step@", p.Now()))
			p.Sleep(10)
		}
	})
	ref.Schedule(25, func() { refOrder = append(refOrder, fmt.Sprint("event@", ref.Now())) })
	ref.Run()
	for _, c := range []struct {
		name   string
		drive  func(e *Engine)
		inline int
	}{
		{"run", (*Engine).Run, 3},
		{"step", func(e *Engine) {
			for e.Step() {
			}
		}, 0},
	} {
		m := &advancer{e: NewEngine(), left: 4}
		m.stepFn = m.step
		m.e.Schedule(0, m.stepFn)
		m.e.Schedule(25, func() { m.order = append(m.order, fmt.Sprint("event@", m.e.Now())) })
		c.drive(m.e)
		if got, want := fmt.Sprint(m.order), fmt.Sprint(refOrder); got != want {
			t.Errorf("%s: order %s, want the sleeper's %s", c.name, got, want)
		}
		if m.e.Executed() != ref.Executed() || m.e.Now() != ref.Now() {
			t.Errorf("%s: %d events to %v, want %d to %v", c.name, m.e.Executed(), m.e.Now(), ref.Executed(), ref.Now())
		}
		if m.inline != c.inline {
			t.Errorf("%s: %d steps inline, want %d", c.name, m.inline, c.inline)
		}
	}
}
