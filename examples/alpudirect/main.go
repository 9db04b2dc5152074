// Alpudirect drives the ALPU device model directly with the Table I/II
// command protocol — the walk a firmware author would take before wiring
// the unit into the NIC loop: reset, batched inserts behind START/STOP
// INSERT, wildcard matching with first-posted-wins priority, delete-on-
// match, and the held-failure retry rule of insert mode.
//
//	go run ./examples/alpudirect
package main

import (
	"fmt"

	"alpusim/internal/alpu"
	"alpusim/internal/match"
	"alpusim/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	dev := alpu.MustDevice(eng, "alpu", alpu.DefaultConfig(128), alpu.Env{Variant: alpu.PostedReceives})

	eng.Spawn("firmware", func(p *sim.Process) {
		result := func() alpu.Response {
			p.WaitCond(dev.Results.NotEmpty, func() bool { return dev.Results.Len() > 0 })
			r, _ := dev.Results.Pop()
			return r
		}
		say := func(f string, args ...any) {
			fmt.Printf("[%9v] %s\n", p.Now(), fmt.Sprintf(f, args...))
		}

		// 1. Insert three receives: an ANY_SOURCE wildcard first, then two
		// explicit ones — the §II ordering trap.
		dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
		r := result()
		say("%v: %d free cells", r.Kind, r.Free)

		entries := []struct {
			recv match.Recv
			tag  uint32
		}{
			{match.Recv{Context: 1, Source: match.AnySource, Tag: 7}, 100},
			{match.Recv{Context: 1, Source: 3, Tag: 7}, 200},
			{match.Recv{Context: 1, Source: 4, Tag: 9}, 300},
		}
		for _, e := range entries {
			b, m := match.PackRecv(e.recv)
			dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: b, Mask: m, Tag: e.tag})
			say("INSERT tag=%d %+v", e.tag, e.recv)
		}
		dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
		p.Sleep(100 * sim.Nanosecond)
		say("occupancy after inserts: %d", dev.Occupancy())

		// 2. A header from source 3, tag 7: both the wildcard (tag 100)
		// and the explicit entry (tag 200) match — MPI ordering demands
		// the first posted wins.
		dev.PushProbe(alpu.Probe{Bits: match.Pack(match.Header{Context: 1, Source: 3, Tag: 7})})
		r = result()
		say("probe {src=3 tag=7} -> %v tag=%d (first-posted wildcard wins)", r.Kind, r.Tag)

		// 3. Same probe again: the wildcard was consumed by the match, so
		// now the explicit entry answers.
		dev.PushProbe(alpu.Probe{Bits: match.Pack(match.Header{Context: 1, Source: 3, Tag: 7})})
		r = result()
		say("probe {src=3 tag=7} -> %v tag=%d (delete-on-match exposed it)", r.Kind, r.Tag)

		// 4. A probe that matches nothing.
		dev.PushProbe(alpu.Probe{Bits: match.Pack(match.Header{Context: 1, Source: 9, Tag: 1})})
		r = result()
		say("probe {src=9 tag=1} -> %v", r.Kind)

		// 5. Insert-mode hold: a failing probe during insert mode is held,
		// and succeeds after the matching entry is inserted (§III-C).
		dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
		result() // ack
		dev.PushProbe(alpu.Probe{Bits: match.Pack(match.Header{Context: 1, Source: 5, Tag: 5})})
		say("probe {src=5 tag=5} pushed during insert mode (no match yet)")
		p.Sleep(50 * sim.Nanosecond) // let the device fail the match and hold it
		b, m := match.PackRecv(match.Recv{Context: 1, Source: 5, Tag: 5})
		dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: b, Mask: m, Tag: 400})
		dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
		r = result()
		say("held probe retried at STOP INSERT -> %v tag=%d", r.Kind, r.Tag)

		// 6. RESET clears everything.
		dev.PushCommand(alpu.Command{Op: alpu.OpReset})
		p.Sleep(50 * sim.Nanosecond)
		say("after RESET: occupancy %d", dev.Occupancy())

		st := dev.Stats()
		say("device stats: %d matches (%d hits), %d inserts, %d held retries",
			st.Matches, st.Hits, st.Inserts, st.HeldRetries)
	})

	eng.Run()
}
