package sim

import (
	"reflect"
	"testing"
)

// Front polls must fire before every ordinary event and every delivery at
// the same instant, since the time-series sampler relies on the ordering
// to observe partition-invariant state.
func TestPollFrontOrdering(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var order []string
		e.Schedule(100, func() { order = append(order, "ord1") })
		e.AtDelivery(100, 3, 1, func() { order = append(order, "del") })
		e.Schedule(100, func() { order = append(order, "ord2") })
		e.AtPollFront(100, func() { order = append(order, "poll") })
		e.Schedule(50, func() { order = append(order, "early") })
		e.Run()
		want := []string{"early", "poll", "ord1", "ord2", "del"}
		if !reflect.DeepEqual(order, want) {
			t.Errorf("firing order %v, want %v", order, want)
		}
	})
}

// Front polls are housekeeping: excluded from Alive, and excluded from
// LastModel, which tracks only modelled events.
func TestPollFrontAliveAndLastModel(t *testing.T) {
	e := NewEngine()
	e.Schedule(80, func() {})
	e.AtPollFront(40, func() {})
	e.SchedulePoll(200, func() {}) // ordinary-class poll, also excluded
	if got := e.Alive(); got != 1 {
		t.Errorf("Alive = %d with one model event and two polls, want 1", got)
	}
	e.Run()
	if got := e.LastModel(); got != 80 {
		t.Errorf("LastModel = %v, want 80 (polls at 40 and 200 excluded)", got)
	}
	if e.Now() != 200 {
		t.Errorf("Now = %v, want 200 (the last poll still advanced the clock)", e.Now())
	}
}

// A re-arming front-poll chain observes state as of strictly before each
// tick: a counter incremented by model events at the tick instant itself
// must not be visible to that tick's sample.
func TestPollFrontChainSamplesPreTickState(t *testing.T) {
	e := NewEngine()
	counter := 0
	for i := 1; i <= 5; i++ {
		at := Time(i * 10)
		e.At(at, func() { counter++ })
	}
	var samples []int
	var tick func()
	tick = func() {
		samples = append(samples, counter)
		if e.Alive() > 0 {
			e.AtPollFront(e.Now()+10, tick)
		}
	}
	e.AtPollFront(10, tick)
	e.Run()
	// Tick at t=10*k sees the increments from events strictly before it:
	// k-1 of them.
	want := []int{0, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples %v, want %v", samples, want)
	}
}
