package sim

import (
	"runtime"
	"strings"
	"testing"
)

// onProcessGoroutine reports whether the caller runs inside the event
// loop of a parked process's goroutine rather than on the home goroutine.
func onProcessGoroutine() bool {
	buf := make([]byte, 1<<16)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "sim.(*Engine).pass(")
}

// spawnHolder spawns a process that parks at 0 in a Sleep until 10, so
// the loop that pops events in between runs on its goroutine.
func spawnHolder(e *Engine, woke *Time) *Process {
	return e.Spawn("holder", func(p *Process) {
		p.Sleep(10)
		*woke = p.Now()
	})
}

// TestEventPanicOnProcessGoroutine: an event function that panics while a
// parked process runs the loop reaches the Run caller with its own value,
// not as that process's ProcessPanic. The process stays parked, and a
// later Run resumes it on time.
func TestEventPanicOnProcessGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var woke Time
	spawnHolder(e, &woke)
	onProc := false
	e.Schedule(5, func() {
		onProc = onProcessGoroutine()
		panic("event boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "event boom" {
				t.Errorf("Run raised %#v, want the event's own value %q", r, "event boom")
			}
		}()
		e.Run()
	}()
	if !onProc {
		t.Fatal("the event did not run on the holder's goroutine")
	}
	if e.ParkedProcs() != 1 || e.Now() != 5 {
		t.Fatalf("after the panic: %d parked at %v, want the holder parked at 5ps", e.ParkedProcs(), e.Now())
	}
	e.Run()
	if woke != 10 {
		t.Errorf("holder woke at %v, want 10ps", woke)
	}
	e.Close()
	settleGoroutines(t, base)
}

// TestEventGoexitOnProcessGoroutine: an event function that calls
// runtime.Goexit (t.FailNow in a test's Schedule callback) while a parked
// process runs the loop ends the Run caller's goroutine the same way, and
// no later event runs.
func TestEventGoexitOnProcessGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var woke Time
	holder := spawnHolder(e, &woke)
	onProc, later := false, false
	e.Schedule(5, func() {
		onProc = onProcessGoroutine()
		runtime.Goexit()
	})
	e.Schedule(7, func() { later = true })
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after an event called runtime.Goexit")
	}
	if !onProc {
		t.Fatal("the event did not run on the holder's goroutine")
	}
	if later || woke != 0 || e.Now() != 5 || e.Pending() != 2 {
		t.Errorf("the loop went on after Goexit: later event ran %v, holder woke at %v, now %v, %d pending",
			later, woke, e.Now(), e.Pending())
	}
	if !holder.Done() || !holder.killed {
		t.Errorf("holder done %v killed %v, want its goroutine ended under the kill mark", holder.Done(), holder.killed)
	}
	e.Close()
	settleGoroutines(t, base)
}

// TestProcessPanicHandedOn: a process resumed by another process's
// goroutine that then panics still reaches the Run caller as a
// *ProcessPanic naming it, with its value and its own stack.
func TestProcessPanicHandedOn(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("a", func(p *Process) { p.Sleep(3) })
	e.Spawn("b", func(p *Process) {
		p.Sleep(5)
		panicInProcess()
	})
	func() {
		defer func() {
			pp, ok := recover().(*ProcessPanic)
			if !ok {
				t.Fatalf("Run did not raise a *ProcessPanic")
			}
			if pp.Proc != "b" || pp.Value != "process boom" || !strings.Contains(string(pp.Stack), "panicInProcess") {
				t.Errorf("ProcessPanic %q %v, stack:\n%s\nwant process b, value %q, stack through panicInProcess",
					pp.Proc, pp.Value, pp.Stack, "process boom")
			}
		}()
		e.Run()
	}()
	// b's wake at 5 was popped on a's goroutine as a finished, and
	// handed to b.
	if e.Handoffs() != 5 || e.Switches() != 4 {
		t.Errorf("%d handoffs, %d switches; want 5 (home to a, a to b, b to a, a to b, b home) and 4",
			e.Handoffs(), e.Switches())
	}
	e.Close()
	settleGoroutines(t, base)
}

func panicInProcess() { panic("process boom") }
