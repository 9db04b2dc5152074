package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{13 * Microsecond, "13.000us"},
		{3 * Millisecond, "3ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClockMHz(t *testing.T) {
	nic := MHz(500)
	if nic.Period != 2*Nanosecond {
		t.Errorf("500 MHz period = %v, want 2ns", nic.Period)
	}
	host := MHz(2000)
	if host.Period != 500*Picosecond {
		t.Errorf("2 GHz period = %v, want 500ps", host.Period)
	}
	if got := nic.Cycles(7); got != 14*Nanosecond {
		t.Errorf("7 cycles at 500MHz = %v, want 14ns", got)
	}
	if got := nic.CyclesCeil(3 * Nanosecond); got != 2 {
		t.Errorf("CyclesCeil(3ns) = %d, want 2", got)
	}
	if got := nic.CyclesCeil(0); got != 0 {
		t.Errorf("CyclesCeil(0) = %d, want 0", got)
	}
	if f := nic.Freq(); f != 500 {
		t.Errorf("Freq = %v, want 500", f)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Errorf("final time = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreakIsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events fired out of schedule order: %v", order)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.ScheduleCancellable(10*Nanosecond, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel of pending event reported false")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel reported true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, e.ScheduleCancellable(Time(i+1)*Nanosecond, func() { fired = append(fired, i) }))
	}
	e.Cancel(ids[4])
	e.Cancel(ids[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*Nanosecond, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("Stop did not halt Run: %d events fired", count)
	}
	e.Run()
	if count != 5 {
		t.Fatalf("resumed Run fired %d total, want 5", count)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var visit func()
	visit = func() {
		depth++
		if depth < 50 {
			e.Schedule(Nanosecond, visit)
		}
	}
	e.Schedule(0, visit)
	e.Run()
	if depth != 50 {
		t.Fatalf("nested chain depth = %d, want 50", depth)
	}
	if e.Now() != 49*Nanosecond {
		t.Errorf("Now = %v, want 49ns", e.Now())
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-Nanosecond, func() {})
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the engine's executed count equals the number scheduled.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			d := Time(d) * Nanosecond
			e.Schedule(d, func() { times = append(times, e.Now()) })
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return e.Executed() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFreeListReuse pins the fast-path property the figure sweeps
// rely on: a schedule/step steady state recycles event objects instead of
// allocating, and the byID table is never populated for plain Schedule.
func TestEngineFreeListReuse(t *testing.T) {
	e := NewEngine()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(Nanosecond, func() {})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.1f objects/op, want 0", allocs)
	}
	if e.byID != nil {
		t.Fatal("plain Schedule populated the cancellable id table")
	}
}

// TestEngineCancellableInterleaved mixes cancellable and plain events and
// checks ids survive free-list recycling: a recycled object must not be
// cancellable through its old id.
func TestEngineCancellableInterleaved(t *testing.T) {
	e := NewEngine()
	var fired []string
	id := e.ScheduleCancellable(5*Nanosecond, func() { fired = append(fired, "c1") })
	e.Schedule(10*Nanosecond, func() { fired = append(fired, "p1") })
	e.Run() // both fire; c1's object returns to the free list
	if e.Cancel(id) {
		t.Fatal("Cancel succeeded on an already-fired event")
	}
	// The recycled object backs a plain event now; the stale id must not
	// reach it.
	e.Schedule(5*Nanosecond, func() { fired = append(fired, "p2") })
	if e.Cancel(id) {
		t.Fatal("stale id cancelled a recycled plain event")
	}
	e.Run()
	if len(fired) != 3 || fired[0] != "c1" || fired[1] != "p1" || fired[2] != "p2" {
		t.Fatalf("fired %v, want [c1 p1 p2]", fired)
	}
}

// Property: interleaved schedule/cancel/step sequences never corrupt heap
// order.
func TestEngineRandomOpsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var live []EventID
		last := Time(-1)
		check := func() {
			if e.Now() < last {
				t.Fatalf("time moved backwards: %v < %v", e.Now(), last)
			}
			last = e.Now()
		}
		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0:
				id := e.ScheduleCancellable(Time(rng.Intn(100))*Nanosecond, check)
				live = append(live, id)
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					e.Cancel(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				e.Step()
			}
		}
		e.Run()
	}
}

// Two self-re-arming pollers must not keep each other (or an empty
// world) alive: Alive excludes poller events, so both stop as soon as
// the modelled work drains.
func TestPollersDoNotKeepWorldAlive(t *testing.T) {
	eng := NewEngine()
	mkPoller := func(period Time) {
		var poll func()
		poll = func() {
			if eng.Alive() > 0 {
				eng.SchedulePoll(period, poll)
			}
		}
		eng.SchedulePoll(0, poll)
	}
	mkPoller(Microsecond)
	mkPoller(3 * Microsecond)
	// Real work: a chain of 5 events 10us apart.
	work, hops := Time(0), 0
	var step func()
	step = func() {
		hops++
		if hops < 5 {
			eng.Schedule(10*Microsecond, step)
		}
	}
	eng.Schedule(0, step)
	work = 4 * 10 * Microsecond
	eng.Run()
	if hops != 5 {
		t.Fatalf("work did not complete: %d hops", hops)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pollers still pending after drain: %d", eng.Pending())
	}
	// Pollers may overshoot the last event by at most one period.
	if eng.Now() > work+3*Microsecond {
		t.Errorf("pollers kept the clock running: now=%v", eng.Now())
	}
	if eng.Alive() != 0 {
		t.Errorf("Alive = %d after drain", eng.Alive())
	}
}
