package sim

import (
	"fmt"
	"strings"
)

// WatchdogError is the panic value raised when a watchdog deadline passes:
// the simulated world livelocked (e.g. an unrecoverable retransmit storm)
// instead of draining. It carries a diagnostic dump of the engine, to which
// an OnFail handler may append model-level context.
type WatchdogError struct {
	Limit Time
	Dump  string
}

func (w *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog expired at %v\n%s", w.Limit, w.Dump)
}

// Watchdog fails a world whose simulated clock passes a deadline while
// events are still flowing. A discrete-event world cannot "hang" in real
// time — it either drains (done) or runs events forever (livelock); the
// watchdog converts the second case into a diagnosable failure instead of
// a simulation that never returns.
type Watchdog struct {
	eng      *Engine
	limit    Time
	interval Time
	// OnFail handles the expiry; the default panics with *WatchdogError,
	// which sweeps and tests can recover per world.
	OnFail func(*WatchdogError)

	fired    bool
	armed    bool // a check poller is pending
	lastPoke Time // simulated time of the latest external Poke
}

// NewWatchdog arms a watchdog that expires when simulated time reaches
// limit. interval is the re-check period (0 selects limit/8). The check
// event re-arms itself only while other events are pending, so a drained
// world still lets Engine.Run return normally.
func NewWatchdog(eng *Engine, limit, interval Time) *Watchdog {
	if limit <= 0 {
		panic("sim: watchdog limit must be positive")
	}
	if interval <= 0 {
		interval = limit / 8
	}
	if interval <= 0 {
		interval = limit
	}
	w := &Watchdog{eng: eng, limit: limit, interval: interval, armed: true}
	eng.SchedulePoll(interval, w.check)
	return w
}

// Fired reports whether the watchdog has expired.
func (w *Watchdog) Fired() bool { return w.fired }

// Poke re-arms the check poller if it has stopped. A watchdog disarms
// itself when its engine runs out of modelled work; the partition
// coordinator pokes it when a barrier injects fresh deliveries into that
// engine, so a partition that drains and is later woken stays guarded.
func (w *Watchdog) Poke() {
	w.lastPoke = w.eng.Now()
	if w.fired || w.armed {
		return
	}
	w.armed = true
	w.eng.SchedulePoll(w.interval, w.check)
}

func (w *Watchdog) check() {
	w.armed = false
	if w.fired {
		return
	}
	if w.eng.Now() >= w.limit {
		w.fired = true
		dump := w.eng.StateDump()
		if w.lastPoke > 0 {
			dump += fmt.Sprintf("\nwatchdog: last external progress poke at %v", w.lastPoke)
		}
		err := &WatchdogError{Limit: w.limit, Dump: dump}
		if w.OnFail != nil {
			w.OnFail(err)
			return
		}
		panic(err)
	}
	// Re-arm only while the world is still alive: with no modelled events
	// pending nothing can ever happen again, so the watchdog must not keep
	// the event loop running by itself (or trade keep-alives with another
	// poller, like the telemetry engine sampler).
	if w.eng.Alive() > 0 {
		w.armed = true
		w.eng.SchedulePoll(w.interval, w.check)
	}
}

// StateDump renders the engine state for failure diagnostics: clock,
// event statistics, and the state of every co-simulated process.
func (e *Engine) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: now=%v executed=%d pending=%d procs=%d",
		e.now, e.executed, e.Pending(), len(e.procs))
	for _, p := range e.procs {
		state := "running"
		switch {
		case p.done:
			state = "done"
		case p.parked:
			state = "parked"
		}
		fmt.Fprintf(&b, "\n  proc %-24s %s", p.name, state)
	}
	return b.String()
}
