package alpu

import (
	"math/rand"
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// testConfig returns a small, fast device for protocol tests.
func testConfig(cells, block int) Config {
	return Config{
		Geometry:         Geometry{Cells: cells, BlockSize: block},
		Clock:            sim.MHz(500),
		MatchCycles:      7,
		InsertCycles:     2,
		HeaderFIFODepth:  16,
		CommandFIFODepth: 8,
		ResultFIFODepth:  16,
	}
}

// posted and unexpected are a standalone unit's two roles.
var (
	posted     = Env{Variant: PostedReceives}
	unexpected = Env{Variant: UnexpectedMessages}
)

// driver wraps the processor side of the Table I/II protocol for tests.
type driver struct {
	p   *sim.Process
	dev *Device
}

func (d *driver) waitResult() Response {
	d.p.WaitCond(d.dev.Results.NotEmpty, func() bool { return d.dev.Results.Len() > 0 })
	r, _ := d.dev.Results.Pop()
	return r
}

// insertAll performs the §IV-C sequence: START INSERT, drain until the
// START ACKNOWLEDGE (collecting any match results), INSERTs, STOP INSERT.
// It returns the responses drained while waiting for the ack.
func (d *driver) insertAll(entries []Command) (drained []Response, free int) {
	d.dev.PushCommand(Command{Op: OpStartInsert})
	for {
		r := d.waitResult()
		if r.Kind == RespStartAck {
			free = r.Free
			break
		}
		drained = append(drained, r)
	}
	for _, c := range entries {
		c.Op = OpInsert
		d.pushCommandWait(c)
	}
	d.pushCommandWait(Command{Op: OpStopInsert})
	return drained, free
}

// pushCommandWait respects command-FIFO backpressure, as real firmware
// tracking the FIFO depth would.
func (d *driver) pushCommandWait(c Command) {
	for !d.dev.PushCommand(c) {
		d.p.WaitCond(d.dev.Commands.NotFull, func() bool { return !d.dev.Commands.Full() })
	}
}

// run spawns a driver process, runs the simulation to quiescence.
func runDriver(t *testing.T, cfg Config, env Env, body func(dr *driver)) *Device {
	t.Helper()
	eng := sim.NewEngine()
	dev := MustDevice(eng, "alpu", cfg, env)
	done := false
	eng.Spawn("driver", func(p *sim.Process) {
		body(&driver{p: p, dev: dev})
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("driver did not finish (deadlock: waiting on a result that never came?)")
	}
	return dev
}

func TestDeviceMatchFailureOnEmpty(t *testing.T) {
	dev := runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, 0)})
		r := dr.waitResult()
		if r.Kind != RespMatchFailure {
			t.Errorf("probe on empty device: %v, want MATCH FAILURE", r.Kind)
		}
	})
	st := dev.Stats()
	if st.Matches != 1 || st.Failures != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeviceInsertThenMatch(t *testing.T) {
	dev := runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		b, m := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
		_, free := dr.insertAll([]Command{{Bits: b, Mask: m, Tag: 77}})
		if free != 32 {
			t.Errorf("START ACKNOWLEDGE free = %d, want 32", free)
		}
		dr.p.Sleep(100 * sim.Nanosecond) // let the insert land
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 2, 3)})
		r := dr.waitResult()
		if r.Kind != RespMatchSuccess || r.Tag != 77 {
			t.Errorf("got %v tag=%d, want MATCH SUCCESS tag=77", r.Kind, r.Tag)
		}
		// The match deleted the entry (MPI semantics).
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 2, 3)})
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Errorf("re-probe: %v, want MATCH FAILURE after delete-on-match", r.Kind)
		}
	})
	if dev.Occupancy() != 0 {
		t.Errorf("occupancy = %d after consuming the only entry", dev.Occupancy())
	}
}

func TestDeviceMatchLatencySevenCycles(t *testing.T) {
	runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		start := dr.p.Now()
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, 0)})
		dr.waitResult()
		elapsed := dr.p.Now() - start
		// 7 cycles at 500 MHz = 14 ns (§V-D).
		if elapsed != 14*sim.Nanosecond {
			t.Errorf("match latency = %v, want 14ns", elapsed)
		}
	})
}

func TestDeviceInsertEveryOtherCycle(t *testing.T) {
	runDriver(t, testConfig(64, 8), posted, func(dr *driver) {
		dr.dev.PushCommand(Command{Op: OpStartInsert})
		r := dr.waitResult()
		if r.Kind != RespStartAck {
			t.Fatalf("expected ack, got %v", r.Kind)
		}
		start := dr.p.Now()
		const n = 16
		for i := 0; i < n; i++ {
			dr.pushCommandWait(Command{Op: OpInsert, Bits: hdrBits(1, 0, int32(i)), Mask: match.FullMask, Tag: uint32(i)})
		}
		dr.pushCommandWait(Command{Op: OpStopInsert})
		for dr.dev.InsertMode() || dr.dev.Commands.Len() > 0 {
			dr.p.Sleep(2 * sim.Nanosecond)
		}
		// One insert per 2 cycles (§V-D): 16 inserts ~ 32 cycles = 64 ns
		// (allow a little slack for compaction waits at cell 0).
		elapsed := dr.p.Now() - start
		if elapsed < 32*2*sim.Nanosecond {
			t.Errorf("insert burst too fast: %v < 64ns", elapsed)
		}
		if elapsed > 48*2*sim.Nanosecond {
			t.Errorf("insert burst too slow: %v (want about 64ns)", elapsed)
		}
	})
}

func TestDeviceInsertModeHoldsFailures(t *testing.T) {
	// §IV-A: MATCH FAILURE cannot occur between START ACKNOWLEDGE and
	// STOP INSERT. A probe that fails mid-insert is retried against the
	// post-insert contents and can then succeed.
	runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		dr.dev.PushCommand(Command{Op: OpStartInsert})
		if r := dr.waitResult(); r.Kind != RespStartAck {
			t.Fatalf("want ack, got %v", r.Kind)
		}
		// Probe now: the unit is empty, so this match fails and is held.
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 2, 3)})
		dr.p.Sleep(100 * sim.Nanosecond)
		if dr.dev.Results.Len() != 0 {
			r, _ := dr.dev.Results.Pop()
			t.Fatalf("response %v emitted during insert mode", r.Kind)
		}
		// Insert the entry the held probe wants, then stop.
		b, m := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
		dr.dev.PushCommand(Command{Op: OpInsert, Bits: b, Mask: m, Tag: 5})
		dr.dev.PushCommand(Command{Op: OpStopInsert})
		r := dr.waitResult()
		if r.Kind != RespMatchSuccess || r.Tag != 5 {
			t.Fatalf("held retry: %v tag=%d, want success tag=5", r.Kind, r.Tag)
		}
	})
}

func TestDeviceHeldFailureEmittedAfterStop(t *testing.T) {
	dev := runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		dr.dev.PushCommand(Command{Op: OpStartInsert})
		if r := dr.waitResult(); r.Kind != RespStartAck {
			t.Fatalf("want ack, got %v", r.Kind)
		}
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 2, 3)})
		dr.p.Sleep(100 * sim.Nanosecond)
		dr.dev.PushCommand(Command{Op: OpStopInsert})
		r := dr.waitResult()
		if r.Kind != RespMatchFailure {
			t.Fatalf("after stop: %v, want MATCH FAILURE", r.Kind)
		}
	})
	if dev.Stats().HeldRetries != 1 {
		t.Errorf("HeldRetries = %d, want 1", dev.Stats().HeldRetries)
	}
}

func TestDeviceDiscardsInvalidCommands(t *testing.T) {
	dev := runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		// INSERT and STOP INSERT outside insert mode are discarded
		// (§III-C footnote 3).
		dr.dev.PushCommand(Command{Op: OpInsert, Bits: hdrBits(1, 0, 0), Tag: 1})
		dr.dev.PushCommand(Command{Op: OpStopInsert})
		dr.p.Sleep(200 * sim.Nanosecond)
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, 0)})
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Errorf("discarded INSERT still matched: %v", r.Kind)
		}
	})
	if dev.Stats().Discarded != 2 {
		t.Errorf("Discarded = %d, want 2", dev.Stats().Discarded)
	}
	if dev.Stats().Inserts != 0 {
		t.Errorf("Inserts = %d, want 0", dev.Stats().Inserts)
	}
}

func TestDeviceReset(t *testing.T) {
	runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		b, m := match.PackRecv(match.Recv{Context: 1, Source: 0, Tag: 0})
		dr.insertAll([]Command{{Bits: b, Mask: m, Tag: 9}})
		dr.p.Sleep(100 * sim.Nanosecond)
		dr.dev.PushCommand(Command{Op: OpReset})
		dr.p.Sleep(100 * sim.Nanosecond)
		if dr.dev.Occupancy() != 0 {
			t.Errorf("occupancy after RESET = %d", dr.dev.Occupancy())
		}
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, 0)})
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Errorf("match after RESET: %v", r.Kind)
		}
	})
}

func TestDevicePriorityOldestWins(t *testing.T) {
	runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		wb, wm := match.PackRecv(match.Recv{Context: 1, Source: match.AnySource, Tag: 4})
		eb, em := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 4})
		dr.insertAll([]Command{
			{Bits: wb, Mask: wm, Tag: 100}, // wildcard first
			{Bits: eb, Mask: em, Tag: 200}, // exact second
		})
		dr.p.Sleep(200 * sim.Nanosecond)
		dr.dev.PushProbe(Probe{Bits: hdrBits(1, 2, 4)})
		if r := dr.waitResult(); r.Tag != 100 {
			t.Errorf("priority: tag %d matched, want first-posted 100", r.Tag)
		}
	})
}

func TestDeviceUnexpectedVariant(t *testing.T) {
	runDriver(t, testConfig(32, 8), unexpected, func(dr *driver) {
		// Store exact headers; probe with a wildcard receive.
		dr.insertAll([]Command{
			{Bits: hdrBits(1, 3, 9), Tag: 1},
			{Bits: hdrBits(1, 4, 9), Tag: 2},
		})
		dr.p.Sleep(200 * sim.Nanosecond)
		pb, pm := match.PackRecv(match.Recv{Context: 1, Source: match.AnySource, Tag: 9})
		dr.dev.PushProbe(Probe{Bits: pb, Mask: pm})
		if r := dr.waitResult(); r.Kind != RespMatchSuccess || r.Tag != 1 {
			t.Errorf("wildcard probe: %v tag=%d, want success tag=1", r.Kind, r.Tag)
		}
	})
}

func TestDeviceLostInsertWhenFull(t *testing.T) {
	cfg := testConfig(8, 8)
	cfg.CommandFIFODepth = 16
	dev := runDriver(t, cfg, posted, func(dr *driver) {
		var cmds []Command
		for i := 0; i < 9; i++ { // one more than capacity
			cmds = append(cmds, Command{Bits: hdrBits(1, 0, int32(i)), Mask: match.FullMask, Tag: uint32(i)})
		}
		dr.insertAll(cmds)
		dr.p.Sleep(sim.Microsecond)
	})
	if dev.Stats().LostInserts != 1 {
		t.Errorf("LostInserts = %d, want 1", dev.Stats().LostInserts)
	}
	if dev.Occupancy() != 8 {
		t.Errorf("occupancy = %d, want 8", dev.Occupancy())
	}
}

func TestDeviceTagsOrderAfterMigration(t *testing.T) {
	dev := runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		var cmds []Command
		for i := 0; i < 10; i++ {
			cmds = append(cmds, Command{Bits: hdrBits(1, 0, int32(i)), Mask: match.FullMask, Tag: uint32(i + 1)})
		}
		dr.insertAll(cmds)
		dr.p.Sleep(sim.Microsecond) // full compaction
	})
	tags := dev.Tags()
	if len(tags) != 10 {
		t.Fatalf("Tags len = %d", len(tags))
	}
	for i, tag := range tags {
		if tag != uint32(i+1) {
			t.Fatalf("Tags = %v, want oldest-first 1..10", tags)
		}
	}
}

func TestDeviceResultFIFOBackpressure(t *testing.T) {
	cfg := testConfig(32, 8)
	cfg.ResultFIFODepth = 2
	runDriver(t, cfg, posted, func(dr *driver) {
		// Burst of 6 probes; drain slowly. The device must stall, not drop.
		for i := 0; i < 6; i++ {
			dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, int32(i))})
		}
		got := 0
		for got < 6 {
			dr.p.Sleep(100 * sim.Nanosecond)
			for {
				if _, ok := dr.dev.Results.Pop(); !ok {
					break
				}
				got++
			}
		}
		if got != 6 {
			t.Errorf("drained %d results, want 6", got)
		}
	})
}

// TestDeviceResultStallAccounting pins the ResultStalls accounting on the
// parked backpressure path: while the result FIFO stays full and the array
// has nothing to compact, the device waits on the FIFO's not-full edge, and
// every waited device cycle must still land in ResultStalls.
func TestDeviceResultStallAccounting(t *testing.T) {
	cfg := testConfig(32, 8)
	cfg.ResultFIFODepth = 2
	const idle = 1000 * sim.Nanosecond // 500 cycles at 500 MHz
	dev := runDriver(t, cfg, posted, func(dr *driver) {
		// Three failures on an empty (hole-free) array: two fill the FIFO,
		// the third forces the device into the parked stall.
		for i := 0; i < 3; i++ {
			dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, int32(i))})
		}
		dr.p.Sleep(idle)
		got := 0
		for got < 3 {
			if _, ok := dr.dev.Results.Pop(); ok {
				got++
				continue
			}
			dr.p.Sleep(10 * sim.Nanosecond)
		}
	})
	stalls := dev.Stats().ResultStalls
	cycles := uint64(idle / cfg.Clock.Period)
	// The stall spans the driver's idle window minus the handful of cycles
	// spent producing the first three results; demand most of the window.
	if stalls < cycles/2 || stalls > cycles+10 {
		t.Errorf("ResultStalls=%d, want roughly the %d stalled cycles", stalls, cycles)
	}
}

func TestDeviceCompactionPoliciesEquivalentSemantics(t *testing.T) {
	for _, anyBlock := range []bool{false, true} {
		cfg := testConfig(32, 8)
		cfg.CompactAnyBlock = anyBlock
		runDriver(t, cfg, posted, func(dr *driver) {
			// Create interior holes: insert with idle gaps so entries
			// migrate apart, then verify matching and order are unaffected.
			for i := 0; i < 5; i++ {
				b := hdrBits(1, 0, int32(i))
				dr.insertAll([]Command{{Bits: b, Mask: match.FullMask, Tag: uint32(i)}})
				dr.p.Sleep(30 * sim.Nanosecond)
			}
			for i := 0; i < 5; i++ {
				dr.dev.PushProbe(Probe{Bits: hdrBits(1, 0, int32(i))})
				r := dr.waitResult()
				if r.Kind != RespMatchSuccess || r.Tag != uint32(i) {
					t.Errorf("anyBlock=%v: probe %d got %v tag=%d", anyBlock, i, r.Kind, r.Tag)
				}
			}
		})
	}
}

// The central correctness property: for random batched-insert/probe
// workloads, the cycle-level Device produces exactly the responses of the
// functional Reference.
func TestDeviceEquivalentToReference(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		rng := rand.New(rand.NewSource(int64(trial)))
		variant := PostedReceives
		if trial%2 == 1 {
			variant = UnexpectedMessages
		}
		cfg := testConfig(32, 8)
		ref := NewReference(variant, 32)
		nextTag := uint32(1)

		randomEntry := func() Command {
			if variant == PostedReceives {
				r := match.Recv{
					Context: uint16(rng.Intn(2)),
					Source:  int32(rng.Intn(3)),
					Tag:     int32(rng.Intn(3)),
				}
				if rng.Intn(4) == 0 {
					r.Source = match.AnySource
				}
				if rng.Intn(6) == 0 {
					r.Tag = match.AnyTag
				}
				b, m := match.PackRecv(r)
				return Command{Bits: b, Mask: m}
			}
			return Command{Bits: hdrBits(uint16(rng.Intn(2)), int32(rng.Intn(3)), int32(rng.Intn(3))), Mask: match.FullMask}
		}
		randomProbe := func() Probe {
			if variant == PostedReceives {
				return Probe{Bits: hdrBits(uint16(rng.Intn(2)), int32(rng.Intn(3)), int32(rng.Intn(3)))}
			}
			r := match.Recv{
				Context: uint16(rng.Intn(2)),
				Source:  int32(rng.Intn(3)),
				Tag:     int32(rng.Intn(3)),
			}
			if rng.Intn(4) == 0 {
				r.Source = match.AnySource
			}
			b, m := match.PackRecv(r)
			return Probe{Bits: b, Mask: m}
		}

		runDriver(t, cfg, Env{Variant: variant}, func(dr *driver) {
			for phase := 0; phase < 8; phase++ {
				if rng.Intn(2) == 0 {
					// Insert phase: batch up to the free space.
					n := rng.Intn(6) + 1
					if free := ref.Free(); n > free {
						n = free
					}
					var cmds []Command
					for i := 0; i < n; i++ {
						c := randomEntry()
						c.Tag = nextTag
						nextTag++
						cmds = append(cmds, c)
					}
					drained, free := dr.insertAll(cmds)
					if len(drained) != 0 {
						t.Fatalf("trial %d: unexpected responses before ack", trial)
					}
					if free != ref.Free() {
						t.Fatalf("trial %d: ack free=%d, ref free=%d", trial, free, ref.Free())
					}
					for _, c := range cmds {
						if !ref.Insert(c.Bits, c.Mask, c.Tag) {
							t.Fatalf("trial %d: reference rejected insert", trial)
						}
					}
					dr.p.Sleep(2 * sim.Microsecond) // quiesce
				} else {
					// Probe phase: sequential probes.
					n := rng.Intn(6) + 1
					for i := 0; i < n; i++ {
						probe := randomProbe()
						dr.dev.PushProbe(probe)
						got := dr.waitResult()
						wantTag, wantOK := ref.Match(probe)
						if wantOK {
							if got.Kind != RespMatchSuccess || got.Tag != wantTag {
								t.Fatalf("trial %d: device %v tag=%d, reference success tag=%d",
									trial, got.Kind, got.Tag, wantTag)
							}
						} else if got.Kind != RespMatchFailure {
							t.Fatalf("trial %d: device %v, reference failure", trial, got.Kind)
						}
					}
				}
			}
		})
	}
}
