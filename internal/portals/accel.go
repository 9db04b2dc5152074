package portals

import (
	"fmt"

	"alpusim/internal/alpu"
	"alpusim/internal/sim"
)

// AccelTable is a portal index whose match list is fronted by an ALPU in
// the §III-A full-width-mask configuration (mask bit per match bit —
// footnote 7's worst case, which is exactly what Portals needs).
//
// Hardware constraint, and the reason the paper pitches the ALPU at MPI's
// "high list entry turnover": the unit deletes on match, which implements
// use-once semantics natively. Persistent match entries cannot live in
// the unit — a persistent entry therefore fences ALPU insertion: the unit
// only ever holds the maximal use-once prefix of the list that precedes
// the first persistent entry, and everything from that entry on is
// searched in software. This preserves Portals' first-attached-wins
// ordering in all cases.
type AccelTable struct {
	table Table // the software copy (the §IV-B shadow list)

	eng     *sim.Engine
	dev     *alpu.Device
	inALPU  int
	tags    map[uint32]*MatchEntry
	nextTag uint32
	seq     uint64

	// Stats.
	Hits, Misses uint64
	// DeviceTime accumulates simulated device/interface time across
	// operations, for the acceleration benches.
	DeviceTime sim.Time
}

// NewAccelTable builds an accelerated portal index with the given unit
// capacity.
func NewAccelTable(cells int) *AccelTable {
	eng := sim.NewEngine()
	t := &AccelTable{
		eng: eng,
		dev: alpu.MustDevice(eng, "portals-alpu", alpu.DefaultConfig(cells),
			alpu.Env{Variant: alpu.PostedReceives}), // stored-mask cell variant
		tags: make(map[uint32]*MatchEntry),
	}
	return t
}

// Len returns the list length.
func (t *AccelTable) Len() int { return t.table.Len() }

// InALPU reports how many entries the unit currently holds (tests).
func (t *AccelTable) InALPU() int { return t.inALPU }

// Attach appends a match entry and, when the insertion fence allows,
// loads it into the unit.
func (t *AccelTable) Attach(me *MatchEntry) {
	t.table.Attach(me)
	t.update()
}

// update performs the insert episode for any eligible suffix: entries are
// loaded in order until the first persistent entry or the unit is full.
func (t *AccelTable) update() {
	var toInsert []*MatchEntry
	for i := t.inALPU; i < t.table.Len(); i++ {
		me := t.table.entries[i]
		if !me.UseOnce || (me.MD != nil && me.MD.ManagedOffset) {
			break // fence: not representable as delete-on-match
		}
		toInsert = append(toInsert, me)
	}
	if len(toInsert) == 0 {
		return
	}
	start := t.eng.Now()
	done := false
	t.eng.Spawn("attach", func(p *sim.Process) {
		defer func() { done = true }()
		t.dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
		r := t.waitResult(p)
		if r.Kind != alpu.RespStartAck {
			panic(fmt.Sprintf("portals: expected ack, got %v", r.Kind))
		}
		n := len(toInsert)
		if n > r.Free {
			n = r.Free
		}
		for _, me := range toInsert[:n] {
			tag := t.allocTag(me)
			t.dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: me.Match, Mask: ^me.Ignore, Tag: tag})
		}
		t.dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
		t.inALPU += n
		// Quiesce: let the unit drain and compact.
		for t.dev.InsertMode() || t.dev.Commands.Len() > 0 {
			p.Sleep(10 * sim.Nanosecond)
		}
	})
	t.eng.Run()
	if !done {
		panic("portals: attach episode did not complete")
	}
	t.DeviceTime += t.eng.Now() - start
}

// ProcessPut matches an incoming put through the unit first and falls
// back to the software suffix, with identical semantics to Table.
func (t *AccelTable) ProcessPut(p Put, now sim.Time) *MatchEntry {
	t.table.Puts++
	start := t.eng.Now()
	var resp alpu.Response
	got := false
	t.eng.Spawn("put", func(pr *sim.Process) {
		t.seq++
		t.dev.PushProbe(alpu.Probe{Bits: p.Bits, Meta: t.seq})
		resp = t.waitResult(pr)
		got = true
	})
	t.eng.Run()
	if !got {
		panic("portals: put probe produced no result")
	}
	t.DeviceTime += t.eng.Now() - start

	if resp.Kind == alpu.RespMatchSuccess {
		t.Hits++
		me := t.tags[resp.Tag]
		if me == nil {
			panic(fmt.Sprintf("portals: unit returned unknown tag %d", resp.Tag))
		}
		delete(t.tags, resp.Tag)
		idx := t.indexOf(me)
		if idx < 0 || idx >= t.inALPU {
			panic("portals: unit matched an entry outside its prefix")
		}
		// The unit already deleted its copy (use-once); mirror it.
		t.inALPU--
		t.table.consume(me, idx, p, now)
		t.update()
		return me
	}

	t.Misses++
	// Software search of the fenced suffix.
	for i := t.inALPU; i < t.table.Len(); i++ {
		me := t.table.entries[i]
		t.table.Traversed++
		if !me.matches(p.Bits) {
			continue
		}
		wasLen := t.table.Len()
		t.table.consume(me, i, p, now)
		if t.table.Len() != wasLen {
			// The entry unlinked (use-once or exhausted MD); the fence may
			// have moved.
			t.update()
		}
		return me
	}
	t.table.Drops++
	t.table.event(nil, Event{Kind: EventDropped, Bits: p.Bits, RLength: p.Length, At: now})
	return nil
}

// Unlink removes an entry explicitly. Entries inside the unit cannot be
// removed by command (Table I has no DELETE), so the firmware purges them
// with an exact self-probe, as the NIC firmware does for the §IV-C race.
func (t *AccelTable) Unlink(me *MatchEntry) bool {
	idx := t.indexOf(me)
	if idx < 0 {
		return false
	}
	if idx < t.inALPU {
		// Purge probe: within the prefix, the first entry matching this
		// entry's own pattern could be an earlier entry; walk candidates
		// until the right one is consumed, reinserting innocents.
		t.purge(me)
		t.inALPU--
	}
	ok := t.table.Unlink(me)
	t.update()
	return ok
}

// purge consumes entries matching me.Match until me itself comes out,
// reinserting any earlier entries that were consumed collaterally (their
// relative order among themselves is preserved by reinsertion fences —
// they go back through Attach-order at the tail of the unit's content,
// which is only safe when no other matching entries sit between; the
// model asserts the common case and panics otherwise, documenting the
// hardware's lack of random delete).
func (t *AccelTable) purge(me *MatchEntry) {
	for guard := 0; guard < t.inALPU+1; guard++ {
		var resp alpu.Response
		t.eng.Spawn("purge", func(pr *sim.Process) {
			t.seq++
			t.dev.PushProbe(alpu.Probe{Bits: me.Match, Mask: ^me.Ignore, Meta: t.seq})
			resp = t.waitResult(pr)
		})
		t.eng.Run()
		if resp.Kind != alpu.RespMatchSuccess {
			panic("portals: purge probe found nothing")
		}
		victim := t.tags[resp.Tag]
		delete(t.tags, resp.Tag)
		if victim == me {
			return
		}
		panic("portals: explicit unlink of a shadowed entry is not supported by the hardware")
	}
}

func (t *AccelTable) indexOf(me *MatchEntry) int {
	for i, e := range t.table.entries {
		if e == me {
			return i
		}
	}
	return -1
}

func (t *AccelTable) allocTag(me *MatchEntry) uint32 {
	for {
		t.nextTag = (t.nextTag + 1) & 0xffff
		if _, used := t.tags[t.nextTag]; !used {
			t.tags[t.nextTag] = me
			return t.nextTag
		}
	}
}

func (t *AccelTable) waitResult(p *sim.Process) alpu.Response {
	p.WaitCond(t.dev.Results.NotEmpty, func() bool { return t.dev.Results.Len() > 0 })
	r, _ := t.dev.Results.Pop()
	return r
}

// Stats proxies the software copy's counters.
func (t *AccelTable) Stats() (puts, drops, traversed uint64) {
	return t.table.Puts, t.table.Drops, t.table.Traversed
}

// EntriesLen mirrors Table.Len for interface parity in tests.
func (t *AccelTable) Entries() []*MatchEntry { return t.table.entries }
