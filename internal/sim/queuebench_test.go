package sim

import (
	"fmt"
	"testing"
)

// Micro-benchmarks of the event-queue kernels — heap vs ladder at several
// steady-state queue depths, the cancellable churn path, and the
// partition-runner barrier window. go test -bench reaches them through
// BenchmarkQueueMicro. The numbers measure host cost of simulating the
// operation, not simulated latency.

// MicroCase names one runnable micro-benchmark.
type MicroCase struct {
	Name  string
	Bench func(b *testing.B)
}

// newQueueEngine builds an engine on the named kernel.
func newQueueEngine(kernel string) *Engine {
	if kernel == "ladder" {
		return NewLadderEngine()
	}
	return NewEngine()
}

// benchHold measures the schedule+step steady state with depth events
// held in flight — the regime where the heap pays O(log depth) sift work
// per operation and the ladder stays O(1).
func benchHold(kernel string, depth int) func(*testing.B) {
	return func(b *testing.B) {
		e := newQueueEngine(kernel)
		fn := func() {}
		for i := 0; i < depth; i++ {
			e.Schedule(Time(i)*Nanosecond, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(Time(depth)*Nanosecond, fn)
			e.Step()
		}
	}
}

// benchCancel measures the schedule-cancel churn path (timeouts that are
// almost always revoked). The ladder cancels lazily, so the queue carries
// tombstones between iterations.
func benchCancel(kernel string) func(*testing.B) {
	return func(b *testing.B) {
		e := newQueueEngine(kernel)
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := e.ScheduleCancellable(Nanosecond, fn)
			e.Cancel(id)
			if i%64 == 63 {
				// Let the clock pass the tombstones so the ladder
				// reclaims them, as a live world would.
				e.Schedule(Nanosecond, fn)
				e.Step()
			}
		}
	}
}

// benchPartitionWindow measures the barrier-window machinery itself: p
// partitions in lockstep, each hopping one delivery to its neighbour per
// window, so every window moves p deliveries through defer+sort+inject.
// Cost per op is the full per-hop overhead (horizon computation, worker
// handoff, outbox flush) on top of the event itself.
func benchPartitionWindow(p int) func(*testing.B) {
	return func(b *testing.B) {
		engines := make([]*Engine, p)
		for i := range engines {
			engines[i] = NewLadderEngine()
		}
		ps := NewPartitionSet(engines, 200*Nanosecond)
		// p chains hop in lockstep, so each window finds every chain in a
		// distinct partition; seqs[part] is only ever touched by the one
		// chain currently resident there.
		seqs := make([]uint64, p)
		hops := b.N/p + 1
		var hop func(part, count int)
		hop = func(part, count int) {
			if count <= 0 {
				return
			}
			dst := (part + 1) % p
			seqs[part]++
			eng := engines[part]
			ps.Defer(part, Delivery{
				At:   eng.Now() + 200*Nanosecond,
				Src:  uint32(part),
				Seq:  seqs[part],
				Part: dst,
				Fn:   func() { hop(dst, count-1) },
			})
		}
		for i := 0; i < p; i++ {
			i := i
			engines[i].Schedule(0, func() { hop(i, hops) })
		}
		b.ReportAllocs()
		b.ResetTimer()
		ps.Run()
	}
}

// QueueMicroCases is the event-queue micro-benchmark set.
func QueueMicroCases() []MicroCase {
	var cases []MicroCase
	for _, kernel := range []string{"heap", "ladder"} {
		for _, depth := range []int{8, 64, 1024} {
			cases = append(cases, MicroCase{
				Name:  fmt.Sprintf("queue/%s/hold%d", kernel, depth),
				Bench: benchHold(kernel, depth),
			})
		}
		cases = append(cases, MicroCase{
			Name:  fmt.Sprintf("queue/%s/cancel", kernel),
			Bench: benchCancel(kernel),
		})
	}
	for _, p := range []int{2, 8} {
		cases = append(cases, MicroCase{
			Name:  fmt.Sprintf("partition/window%d", p),
			Bench: benchPartitionWindow(p),
		})
	}
	return cases
}
