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
