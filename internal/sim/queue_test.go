package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// TestDeliveryOrdering pins the canonical tie-break: at one instant,
// ordinary events fire in schedule order before any delivery, and
// deliveries fire in (source, per-source sequence) order regardless of
// the order they were scheduled in.
func TestDeliveryOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	add := func(name string) func() {
		return func() { got = append(got, name) }
	}
	const at = 100 * Nanosecond
	e.AtDelivery(at, 2, 1, add("d:src2#1"))
	e.AtDelivery(at, 1, 7, add("d:src1#7"))
	e.At(at, add("ord1"))
	e.AtDelivery(at, 1, 9, add("d:src1#9"))
	e.At(at, add("ord2"))
	for e.Step() {
	}
	want := []string{"ord1", "ord2", "d:src1#7", "d:src1#9", "d:src2#1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// refHeap is the container/heap queue the engine ran on before eventHeap:
// the reference TestEventHeapMatchesContainerHeap compares the typed heap
// against, slot for slot.
type refHeap []*refEvent

type refEvent struct {
	at     Time
	k1, k2 uint64
	label  int
	idx    int
}

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return eventLess(&event{at: a.at, k1: a.k1, k2: a.k2}, &event{at: b.at, k1: b.k1, k2: b.k2})
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// TestEventHeapMatchesContainerHeap replays seeded mixes of every way an
// event enters or leaves the queue — At at repeated instants, AtDelivery
// from several sources, AtPollFront, ScheduleCancellable/Cancel and Step —
// against the engine and a container/heap reference. After every
// operation the two queues must hold the same key in every slot with
// every live idx equal to its slot, and every Step must fire the event the
// reference pops.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref refHeap
		var fired, nextLabel int
		cancels := map[EventID]*refEvent{}
		var ids []EventID
		dseq := map[uint32]uint64{}
		fronts := map[Time]bool{}
		// add mirrors the event the engine just queued into the reference.
		add := func(label int, at Time, k1, k2 uint64) *refEvent {
			ev := &refEvent{at: at, k1: k1, k2: k2, label: label}
			heap.Push(&ref, ev)
			return ev
		}
		fire := func(label int) func() { return func() { fired = label } }
		check := func(op string) {
			t.Helper()
			if len(e.events) != len(ref) {
				t.Fatalf("seed %d after %s: %d events queued, reference %d", seed, op, len(e.events), len(ref))
			}
			for i, ev := range e.events {
				r := ref[i]
				if ev.at != r.at || ev.k1 != r.k1 || ev.k2 != r.k2 || ev.idx != i || r.idx != i {
					t.Fatalf("seed %d after %s: slot %d holds (%v,%#x,%d) idx %d, reference (%v,%#x,%d) idx %d",
						seed, op, i, ev.at, ev.k1, ev.k2, ev.idx, r.at, r.k1, r.k2, r.idx)
				}
			}
		}
		for op := 0; op < 2000; op++ {
			// A handful of instants ahead of the clock, so keys collide on
			// at and the tie-break decides.
			at := e.Now() + Time(rng.Intn(4))*Nanosecond
			label := nextLabel
			nextLabel++
			switch k := rng.Intn(10); {
			case k < 3:
				e.At(at, fire(label))
				add(label, at, 0, e.seq)
				check("At")
			case k < 5:
				src := uint32(rng.Intn(4))
				dseq[src]++
				e.AtDelivery(at, src, dseq[src], fire(label))
				add(label, at, deliveryClass|uint64(src), dseq[src])
				check("AtDelivery")
			case k < 6:
				if fronts[at] {
					continue
				}
				fronts[at] = true
				e.AtPollFront(at, fire(label))
				add(label, at, 0, 0)
				check("AtPollFront")
			case k < 7:
				id := e.ScheduleCancellable(at-e.Now(), fire(label))
				cancels[id] = add(label, at, 0, e.seq)
				ids = append(ids, id)
				check("ScheduleCancellable")
			case k < 8:
				if len(ids) == 0 {
					continue
				}
				i := rng.Intn(len(ids))
				id := ids[i]
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				r, live := cancels[id]
				delete(cancels, id)
				if got := e.Cancel(id); got != (live && r.idx >= 0) {
					t.Fatalf("seed %d: Cancel(%d) = %v, reference live %v", seed, id, got, live && r.idx >= 0)
				}
				if live && r.idx >= 0 {
					heap.Remove(&ref, r.idx)
				}
				check("Cancel")
			default:
				if len(ref) == 0 {
					continue
				}
				want := heap.Pop(&ref).(*refEvent)
				if want.k1 == 0 && want.k2 == 0 {
					delete(fronts, want.at)
				}
				fired = -1
				e.Step()
				if fired != want.label || e.Now() != want.at {
					t.Fatalf("seed %d: Step fired event %d at %v, reference pops %d at %v",
						seed, fired, e.Now(), want.label, want.at)
				}
				check("Step")
			}
		}
	}
}
