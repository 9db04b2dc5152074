package sim

import "testing"

// BenchmarkEngineScheduleStep measures the event-kernel hot path used by
// every simulated world: schedule one event, pop and execute it. The
// figure sweeps execute tens of millions of these, so per-event heap
// allocations and map traffic here dominate simulator wall-clock.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Nanosecond, fn)
		e.Step()
	}
}

// BenchmarkEngineScheduleStepDepth8 keeps eight events in flight so the
// heap sift work is representative of a busy NIC world rather than the
// single-element degenerate case.
func BenchmarkEngineScheduleStepDepth8(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.Schedule(Time(i)*Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(8*Nanosecond, fn)
		e.Step()
	}
}

// BenchmarkEngineCancellable measures the cancellable schedule/cancel
// cycle, the only path that needs the byID map.
func BenchmarkEngineCancellable(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.ScheduleCancellable(Nanosecond, fn)
		e.Cancel(id)
	}
}

// BenchmarkQueueMicro runs the event-queue micro set (plus the
// partition-window overhead) for the CI bench gate.
func BenchmarkQueueMicro(b *testing.B) {
	for _, c := range QueueMicroCases() {
		b.Run(c.Name, c.Bench)
	}
}

// BenchmarkProcessSleep measures one Sleep of a co-simulated process under
// Run. alone: the wake is always the next event, so Sleep takes it inline
// with no goroutine handoff. contended: a rival sleeper's wake is always
// pending first, so every Sleep parks, pops the rival's wake and hands it
// the baton — one channel handoff plus a heap push and pop. One op there is
// one Sleep of each of the two processes.
func BenchmarkProcessSleep(b *testing.B) {
	for _, c := range []struct {
		name  string
		procs int
	}{{"alone", 1}, {"contended", 2}} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			n := b.N
			for i := 0; i < c.procs; i++ {
				e.Spawn("sleeper", func(p *Process) {
					for j := 0; j < n; j++ {
						p.Sleep(Nanosecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkProcessHandoff measures a resume handed from one process to
// another in a crowd: 48 processes sleep 1 ns in turn, so every wake a
// parked process pops belongs to the next process, and each Sleep costs
// a heap push and pop and one channel handoff. One op is one Sleep.
func BenchmarkProcessHandoff(b *testing.B) {
	const procs = 48
	e := NewEngine()
	n := (b.N + procs - 1) / procs
	for i := 0; i < procs; i++ {
		e.Spawn("sleeper", func(p *Process) {
			for j := 0; j < n; j++ {
				p.Sleep(Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessWait measures one WaitSignal/Raise round trip between two
// processes: each raises the signal the other waits on, so every op is two
// signal wakes through the queue and two goroutine handoffs.
func BenchmarkProcessWait(b *testing.B) {
	e := NewEngine()
	ping, pong := NewSignal(e), NewSignal(e)
	n := b.N
	e.Spawn("pinger", func(p *Process) {
		for j := 0; j < n; j++ {
			ping.Raise()
			p.WaitSignal(pong)
		}
	})
	e.Spawn("ponger", func(p *Process) {
		for j := 0; j < n; j++ {
			p.WaitSignal(ping)
			pong.Raise()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
