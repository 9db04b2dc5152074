package alpu

import (
	"fmt"
	"strings"
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// TestPushResultStallOracle pins the satellite claim that ResultStalls is
// counted identically on the per-cycle reference path and the
// cycle-batched fast path: same protocol, same tiny result FIFO, same
// slow consumer — the full Stats (ResultStalls included) and the response
// sequences must be bit-identical.
func TestPushResultStallOracle(t *testing.T) {
	run := func(perCycle bool) (Stats, []Response) {
		cfg := testConfig(32, 8)
		cfg.ResultFIFODepth = 2 // force backpressure quickly
		cfg.PerCycle = perCycle
		eng := sim.NewEngine()
		dev := MustDevice(eng, "alpu", cfg, posted)
		var got []Response
		eng.Spawn("driver", func(p *sim.Process) {
			dr := &driver{p: p, dev: dev}
			var entries []Command
			for i := 0; i < 16; i++ {
				entries = append(entries, Command{
					Bits: match.Bits(i), Mask: match.FullMask, Tag: uint32(i),
				})
			}
			dr.insertAll(entries)
			// Burst probes so responses pile into the depth-2 FIFO, then
			// drain slowly: the device must stall in pushResult.
			for i := 0; i < 16; i++ {
				dev.PushProbe(Probe{Bits: match.Bits(i)})
			}
			for len(got) < 16 {
				p.Sleep(200 * sim.Nanosecond) // far slower than the pipeline
				for {
					r, ok := dev.Results.Pop()
					if !ok {
						break
					}
					got = append(got, r)
				}
			}
		})
		eng.Run()
		return dev.Stats(), got
	}

	refStats, refResp := run(true)
	fastStats, fastResp := run(false)
	if refStats.ResultStalls == 0 {
		t.Fatal("scenario produced no result stalls; backpressure not exercised")
	}
	if refStats != fastStats {
		t.Errorf("stats diverge:\n per-cycle: %+v\n batched:   %+v", refStats, fastStats)
	}
	if len(refResp) != len(fastResp) {
		t.Fatalf("response counts diverge: %d vs %d", len(refResp), len(fastResp))
	}
	for i := range refResp {
		if refResp[i] != fastResp[i] {
			t.Errorf("response %d diverges: %+v vs %+v", i, refResp[i], fastResp[i])
		}
	}
}

// TestBitFlipScrubQuarantines checks the detection path: injected cell
// corruption is caught by parity before any probe can match against it,
// the cell is quarantined, and a FAULT response names the lost tag.
func TestBitFlipScrubQuarantines(t *testing.T) {
	eng := sim.NewEngine()
	dev := MustDevice(eng, "alpu", testConfig(32, 8), Env{Faults: &FaultModel{Seed: 7, BitFlipProb: 0.5}})
	inserted := map[uint32]bool{}
	faultTags := map[uint32]bool{}
	matched := map[uint32]bool{}
	eng.Spawn("driver", func(p *sim.Process) {
		dr := &driver{p: p, dev: dev}
		var entries []Command
		for i := 0; i < 24; i++ {
			entries = append(entries, Command{
				Bits: match.Bits(i), Mask: match.FullMask, Tag: uint32(i),
			})
			inserted[uint32(i)] = true
		}
		dr.insertAll(entries)
		for i := 0; i < 24; i++ {
			dev.PushProbe(Probe{Bits: match.Bits(i)})
		}
		// Every probe produces exactly one match-class response; FAULTs
		// arrive interleaved as the scrubber quarantines corrupted cells.
		answers := 0
		for answers < 24 {
			r := dr.waitResult()
			switch r.Kind {
			case RespFault:
				faultTags[r.Tag] = true
			case RespMatchSuccess:
				matched[r.Tag] = true
				answers++
			case RespMatchFailure:
				answers++
			default:
				t.Errorf("unexpected response %+v", r)
			}
		}
	})
	eng.Run()
	s := dev.Stats()
	if s.BitFlips == 0 || s.ParityFaults == 0 {
		t.Fatalf("fault injection idle: %+v", s)
	}
	if s.BitFlips != s.ParityFaults {
		t.Errorf("every flip must be quarantined exactly once: flips=%d quarantines=%d",
			s.BitFlips, s.ParityFaults)
	}
	for tag := range faultTags {
		if !inserted[tag] {
			t.Errorf("FAULT named tag %d that was never inserted", tag)
		}
		if matched[tag] {
			t.Errorf("tag %d both quarantined and matched — corrupt cell served a probe", tag)
		}
	}
	if len(faultTags) == 0 {
		t.Fatal("no FAULT responses observed")
	}
}

// TestDeviceDeathGoesDark checks the hard-failure mode: after DeathAt the
// device swallows everything and never responds, but its FIFOs keep
// draining so producers are not wedged — and the world still quiesces.
func TestDeviceDeathGoesDark(t *testing.T) {
	eng := sim.NewEngine()
	dev := MustDevice(eng, "alpu", testConfig(32, 8), Env{Faults: &FaultModel{Seed: 1, DeathAt: 2 * sim.Microsecond}})
	var before, after int
	eng.Spawn("driver", func(p *sim.Process) {
		dr := &driver{p: p, dev: dev}
		dr.insertAll([]Command{{Bits: 1, Mask: match.FullMask, Tag: 1}})
		dev.PushProbe(Probe{Bits: 1})
		if r := dr.waitResult(); r.Kind == RespMatchSuccess {
			before++
		}
		p.Sleep(3 * sim.Microsecond) // cross the death instant
		if !dev.Dead() {
			t.Error("device not dead after DeathAt")
		}
		for i := 0; i < 8; i++ {
			dev.PushProbe(Probe{Bits: 1})
			dev.PushCommand(Command{Op: OpStartInsert})
		}
		// A live device would answer within a handful of cycles; give it
		// generously longer, using a timed wait so the test cannot hang.
		if p.WaitCondUntil(dev.Results.NotEmpty,
			func() bool { return dev.Results.Len() > 0 }, 10*sim.Microsecond) {
			after++
		}
	})
	eng.Run()
	if before != 1 {
		t.Fatalf("pre-death match did not complete: %d", before)
	}
	if after != 0 {
		t.Fatal("dead device produced a response")
	}
	if dev.Stats().DeadDiscards == 0 {
		t.Fatal("dead device did not swallow queued work")
	}
}

// faultSchedule runs a fixed insert/probe session on a 32-cell unit in
// the role env gives it and returns its final Stats and the responses it
// produced: together, the fault schedule the unit drew.
func faultSchedule(env Env) (Stats, []Response) {
	eng := sim.NewEngine()
	dev := MustDevice(eng, "alpu", testConfig(32, 8), env)
	var got []Response
	eng.Spawn("driver", func(p *sim.Process) {
		dr := &driver{p: p, dev: dev}
		var entries []Command
		for i := 0; i < 16; i++ {
			entries = append(entries, Command{
				Bits: match.Bits(i), Mask: match.FullMask, Tag: uint32(i),
			})
		}
		dr.insertAll(entries)
		for i := 0; i < 16; i++ {
			dev.PushProbe(Probe{Bits: match.Bits(i)})
		}
		// Drain with timeouts: dropped results mean fewer responses
		// than probes, and the exact count is the seed's business.
		for p.WaitCondUntil(dev.Results.NotEmpty,
			func() bool { return dev.Results.Len() > 0 }, 5*sim.Microsecond) {
			r, _ := dev.Results.Pop()
			got = append(got, r)
		}
	})
	eng.Run()
	return dev.Stats(), got
}

// soakFaults is the fault model the schedule tests draw from.
var soakFaults = &FaultModel{Seed: 99, BitFlipProb: 0.3, ResultDropProb: 0.1, StuckProb: 0.2}

// TestFaultDeterminism: the same seed yields the same fault schedule and
// the same final stats, run to run.
func TestFaultDeterminism(t *testing.T) {
	a, _ := faultSchedule(Env{Faults: soakFaults})
	b, _ := faultSchedule(Env{Faults: soakFaults})
	if a != b {
		t.Fatalf("same seed, different stats:\n a: %+v\n b: %+v", a, b)
	}
	if a.BitFlips == 0 && a.DroppedResults == 0 && a.StuckCycles == 0 {
		t.Fatalf("fault injection idle: %+v", a)
	}
}

// TestFaultStreamFollowsIdentity: a unit's fault stream is derived from
// its Env identity. Units sharing one fault model but differing in (PID,
// TID) draw different schedules; one identity reproduces its schedule
// exactly; the identity offsets the seed by PID·0x9E3779B9 +
// TID·0x85EBCA6B; and identity (0, 0) is the standalone seeding, whose
// counts are pinned.
func TestFaultStreamFollowsIdentity(t *testing.T) {
	schedule := func(f *FaultModel, pid, tid int) string {
		s, resp := faultSchedule(Env{Faults: f, PID: pid, TID: tid})
		return fmt.Sprintf("%+v %v", s, resp)
	}
	ids := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {3, 4}}
	seen := map[string][2]int{}
	for _, id := range ids {
		got := schedule(soakFaults, id[0], id[1])
		if prev, ok := seen[got]; ok {
			t.Errorf("identities %v and %v drew the same schedule", prev, id)
		}
		seen[got] = id
		if again := schedule(soakFaults, id[0], id[1]); again != got {
			t.Errorf("identity %v: schedule not reproduced:\n %s\n %s", id, got, again)
		}
		g := *soakFaults
		g.Seed += uint64(id[0])*0x9E3779B9 + uint64(id[1])*0x85EBCA6B
		if off := schedule(&g, 0, 0); off != got {
			t.Errorf("identity %v: schedule differs from the offset seed's:\n %s\n %s", id, got, off)
		}
	}
	s, resp := faultSchedule(Env{Faults: soakFaults})
	want := [4]uint64{8, 2, 136, 22}
	if got := [4]uint64{s.BitFlips, s.DroppedResults, s.StuckCycles, uint64(len(resp))}; got != want {
		t.Errorf("standalone schedule (flips, drops, stuck cycles, responses) = %v, want %v", got, want)
	}
}

// TestDevicePanicReachesRun: a panic in a device step reaches the caller
// of Run as its own value, naming the device, even when a parked
// process's goroutine ran the step. The device is no process, so the
// panic is no *sim.ProcessPanic. The step is forced into emit with a full
// result FIFO, the one inconsistency the device checks for.
func TestDevicePanicReachesRun(t *testing.T) {
	eng := sim.NewEngine()
	dev := MustDevice(eng, "nic3.palpu", testConfig(32, 8), posted)
	full := sim.NewFIFO[Response](eng, "full", 1)
	full.Push(Response{})
	eng.Spawn("driver", func(p *sim.Process) {
		p.Sleep(sim.Nanosecond) // the device has started and waits for work
		dev.Results = full
		dev.resume = func(d *Device) { d.emit(Response{Kind: RespMatchFailure}) }
		dev.PushCommand(Command{Op: OpReset})
		p.Sleep(sim.Nanosecond) // the driver's goroutine runs the device's step
	})
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "nic3.palpu") || !strings.Contains(msg, "rejected push") {
			t.Fatalf("Run raised %#v, want the device's own message naming nic3.palpu", r)
		}
		eng.Close()
	}()
	eng.Run()
	t.Fatal("Run returned without the device's panic")
}
