package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestProcessSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake []Time
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			wake = append(wake, p.Now())
		}
	})
	e.Run()
	if len(wake) != 5 {
		t.Fatalf("woke %d times, want 5", len(wake))
	}
	for i, w := range wake {
		want := Time(i+1) * 10 * Nanosecond
		if w != want {
			t.Errorf("wake %d at %v, want %v", i, w, want)
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		p.Sleep(10 * Nanosecond)
		order = append(order, "a10")
		p.Sleep(20 * Nanosecond)
		order = append(order, "a30")
	})
	e.Spawn("b", func(p *Process) {
		p.Sleep(20 * Nanosecond)
		order = append(order, "b20")
	})
	e.Run()
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", order, want)
		}
	}
}

func TestProcessZeroSleepYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Process) {
		order = append(order, "p-before")
		p.Sleep(0)
		order = append(order, "p-after")
	})
	// Spawned after p, so its start event is behind p's first run but ahead
	// of p's zero-sleep resume.
	e.Spawn("q", func(p *Process) {
		order = append(order, "q")
	})
	e.Run()
	want := []string{"p-before", "q", "p-after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSignalWakesWaiter(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke Time
	e.Spawn("waiter", func(p *Process) {
		p.WaitSignal(s)
		woke = p.Now()
	})
	e.Schedule(42*Nanosecond, s.Raise)
	e.Run()
	if woke != 42*Nanosecond {
		t.Fatalf("waiter woke at %v, want 42ns", woke)
	}
}

func TestSignalLevelNotLost(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	s.Raise() // raised before anyone waits
	done := false
	e.Spawn("waiter", func(p *Process) {
		p.WaitSignal(s) // must not block forever
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("pre-raised signal was lost")
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	count := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Process) {
			p.WaitCond(s, func() bool { return true })
			count++
		})
	}
	e.Schedule(Nanosecond, s.Raise)
	e.Run()
	if count != 3 {
		t.Fatalf("woke %d waiters, want 3", count)
	}
}

func TestWaitCond(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	n := 0
	var woke Time
	e.Spawn("w", func(p *Process) {
		p.WaitCond(s, func() bool { return n >= 3 })
		woke = p.Now()
	})
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*10*Nanosecond, func() {
			n++
			s.Raise()
		})
	}
	e.Run()
	if woke != 30*Nanosecond {
		t.Fatalf("condition satisfied at %v, want 30ns", woke)
	}
}

func TestWaitCondUntilSatisfied(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	n := 0
	var ok bool
	var woke Time
	e.Spawn("w", func(p *Process) {
		ok = p.WaitCondUntil(s, func() bool { return n >= 2 }, 100*Nanosecond)
		woke = p.Now()
	})
	for i := 1; i <= 3; i++ {
		e.Schedule(Time(i)*10*Nanosecond, func() {
			n++
			s.Raise()
		})
	}
	e.Run()
	if !ok || woke != 20*Nanosecond {
		t.Fatalf("WaitCondUntil = %v at %v, want true at 20ns", ok, woke)
	}
}

func TestWaitCondUntilExpires(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var ok bool
	var woke Time
	e.Spawn("w", func(p *Process) {
		ok = p.WaitCondUntil(s, func() bool { return false }, 50*Nanosecond)
		woke = p.Now()
	})
	// Raises that never satisfy the condition must not extend the wait.
	e.Schedule(10*Nanosecond, s.Raise)
	e.Run()
	if ok || woke != 50*Nanosecond {
		t.Fatalf("WaitCondUntil = %v at %v, want false at 50ns", ok, woke)
	}
}

func TestWaitCondUntilImmediate(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var okTrue, okZero bool
	e.Spawn("w", func(p *Process) {
		okTrue = p.WaitCondUntil(s, func() bool { return true }, 0)
		okZero = p.WaitCondUntil(s, func() bool { return false }, 0)
	})
	e.Run()
	if !okTrue || okZero {
		t.Fatalf("immediate WaitCondUntil = %v,%v, want true,false", okTrue, okZero)
	}
}

func TestProcessDone(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("p", func(p *Process) { p.Sleep(Nanosecond) })
	if p.Done() {
		t.Fatal("process done before Run")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("process not done after Run")
	}
	if p.Name() != "p" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestFIFOBasics(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "hdr", 3)
	if f.Name() != "hdr" || f.Cap() != 3 {
		t.Fatal("FIFO metadata wrong")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop on empty FIFO succeeded")
	}
	for i := 1; i <= 3; i++ {
		if !f.Push(i) {
			t.Fatalf("Push %d failed below capacity", i)
		}
	}
	if !f.Full() {
		t.Fatal("FIFO not full at capacity")
	}
	if f.Push(4) {
		t.Fatal("Push succeeded on full FIFO")
	}
	if f.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", f.Drops())
	}
	if v, ok := f.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = %v,%v want 1,true", v, ok)
	}
	for i := 1; i <= 3; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %v,%v want %d,true", v, ok, i)
		}
	}
	if f.MaxDepth() != 3 || f.Pushes() != 3 {
		t.Errorf("MaxDepth=%d Pushes=%d, want 3,3", f.MaxDepth(), f.Pushes())
	}
}

func TestFIFOUnbounded(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "u", 0)
	for i := 0; i < 1000; i++ {
		if !f.Push(i) {
			t.Fatal("unbounded FIFO rejected a push")
		}
	}
	if f.Len() != 1000 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFIFONotEmptySignal(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[string](e, "f", 0)
	var got string
	e.Spawn("consumer", func(p *Process) {
		p.WaitCond(f.NotEmpty, func() bool { return f.Len() > 0 })
		got, _ = f.Pop()
	})
	e.Schedule(5*Nanosecond, func() { f.Push("hello") })
	e.Run()
	if got != "hello" {
		t.Fatalf("consumer got %q", got)
	}
}

func TestFIFOProducerConsumerProcesses(t *testing.T) {
	e := NewEngine()
	f := NewFIFO[int](e, "pc", 4)
	var consumed []int
	e.Spawn("producer", func(p *Process) {
		for i := 0; i < 20; i++ {
			p.WaitCond(f.NotFull, func() bool { return !f.Full() })
			f.Push(i)
			p.Sleep(Nanosecond)
		}
	})
	e.Spawn("consumer", func(p *Process) {
		for len(consumed) < 20 {
			p.WaitCond(f.NotEmpty, func() bool { return f.Len() > 0 })
			v, _ := f.Pop()
			consumed = append(consumed, v)
			p.Sleep(3 * Nanosecond)
		}
	})
	e.Run()
	if len(consumed) != 20 {
		t.Fatalf("consumed %d items, want 20", len(consumed))
	}
	for i, v := range consumed {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, consumed)
		}
	}
	if f.MaxDepth() > 4 {
		t.Fatalf("FIFO exceeded capacity: depth %d", f.MaxDepth())
	}
}

// TestParkAllocatesNothing: once warm, a park and the wake that resumes it
// allocate nothing — the wake rides a pooled event object, and a signal
// keeps its waiter list's backing array across raises. The same holds
// for a function waiter's wait.
func TestParkAllocatesNothing(t *testing.T) {
	const loops = 1000
	t.Run("contended-sleep", func(t *testing.T) {
		// Under a bare Step every wake goes through the queue, and the
		// rival sleeper's wake is always pending: each Step is one resume
		// and one park.
		e := NewEngine()
		for i := 0; i < 2; i++ {
			e.Spawn("sleeper", func(p *Process) {
				for j := 0; j < loops; j++ {
					p.Sleep(Nanosecond)
				}
			})
		}
		for i := 0; i < 16; i++ {
			e.Step()
		}
		if a := testing.AllocsPerRun(100, func() { e.Step() }); a != 0 {
			t.Fatalf("contended Sleep: %v allocations per park, want 0", a)
		}
		e.Run()
	})
	t.Run("signal-round-trip", func(t *testing.T) {
		e := NewEngine()
		s := NewSignal(e)
		w := e.Spawn("waiter", func(p *Process) {
			for j := 0; j < loops; j++ {
				p.WaitSignal(s)
			}
		})
		roundTrip := func() {
			s.Raise()
			e.Step()
		}
		e.Step()
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if a := testing.AllocsPerRun(100, roundTrip); a != 0 {
			t.Fatalf("WaitSignal/Raise: %v allocations per park, want 0", a)
		}
		for !w.Done() {
			roundTrip()
		}
	})
	t.Run("function-wait", func(t *testing.T) {
		// A state machine's warm wait: the function is bound once, the
		// registration reuses the waiter list's backing array and the
		// event rides a pooled object.
		e := NewEngine()
		s := NewSignal(e)
		n := 0
		fn := func() { n++ }
		roundTrip := func() {
			s.Notify(fn)
			s.Raise()
			e.Step()
		}
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if a := testing.AllocsPerRun(100, roundTrip); a != 0 {
			t.Fatalf("Notify/Raise: %v allocations per wait, want 0", a)
		}
		if n != 16+101 {
			t.Fatalf("the waiter ran %d times, want %d", n, 16+101)
		}
	})
}

// settleGoroutines waits until runtime.NumGoroutine is back to want: a
// process goroutine hands the baton on a moment before it exits. It
// fails only on a surplus — an earlier test's exiting goroutine may have
// been counted in want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("%d goroutines left, want %d", n, want)
	}
}

// TestCloseUnwindsProcesses: Close ends every process that is not done —
// parked in Sleep, parked in a signal wait, or never started — running
// the deferred calls of the started ones under the kill mark, and leaves
// the clock, the counters and the queue as the run left them.
func TestCloseUnwindsProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	s := NewSignal(e)
	var unwound []string
	spawnParked := func(name string, wait func(p *Process)) {
		e.Spawn(name, func(p *Process) {
			defer func() {
				if p.killed {
					unwound = append(unwound, name)
				}
			}()
			wait(p)
			t.Errorf("%s ran past its park", name)
		})
	}
	spawnParked("sleeper", func(p *Process) { p.Sleep(Second) })
	spawnParked("waiter", func(p *Process) { p.WaitSignal(s) })
	e.Spawn("panicker", func(p *Process) {
		defer panic("teardown panic") // dropped: Close must not raise it
		p.WaitSignal(s)
	})
	e.Spawn("finished", func(p *Process) {})
	e.Schedule(5*Nanosecond, func() {
		// Stop fires with this spawn's first wake still queued.
		e.Spawn("late", func(p *Process) { t.Error("late process started") })
		e.Stop()
	})
	e.Run()
	now, executed, switches, pending := e.Now(), e.Executed(), e.Switches(), e.Pending()
	if parked := e.ParkedProcs(); parked != 4 {
		t.Fatalf("%d parked processes before Close, want 4", parked)
	}
	e.Close()
	if want := []string{"sleeper", "waiter"}; fmt.Sprint(unwound) != fmt.Sprint(want) {
		t.Errorf("unwound %v under the kill mark, want %v", unwound, want)
	}
	if e.Now() != now || e.Executed() != executed || e.Switches() != switches || e.Pending() != pending {
		t.Errorf("Close moved the engine: now %v executed %d switches %d pending %d, want %v %d %d %d",
			e.Now(), e.Executed(), e.Switches(), e.Pending(), now, executed, switches, pending)
	}
	if parked := e.ParkedProcs(); parked != 0 {
		t.Errorf("%d parked processes after Close", parked)
	}
	e.Close()
	settleGoroutines(t, base)
}

// TestCloseNeverStartedProcess: a process spawned on an engine that never
// runs exits on Close without running its function.
func TestCloseNeverStartedProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	p := e.Spawn("idle", func(p *Process) { t.Error("never-run process started") })
	e.Close()
	if !p.Done() || e.Switches() != 0 || e.Executed() != 0 {
		t.Errorf("done %v switches %d executed %d, want true 0 0", p.Done(), e.Switches(), e.Executed())
	}
	settleGoroutines(t, base)
}
