package alpu

import (
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// The paper's footnote 1: "The prototype design only supports hardware
// acceleration for a single process, but extending it to support a
// limited number of processes is straightforward." The extension needs no
// new cell hardware — a process id rides in (otherwise unused) high match
// bits, so entries and probes of different processes can share one unit
// without ever cross-matching. This test demonstrates that sharing.
func TestMultiProcessPartitioning(t *testing.T) {
	const pidShift = 48 // above the 42-bit MPI triple
	withPID := func(pid uint64, b match.Bits) match.Bits {
		return b | match.Bits(pid<<pidShift)
	}
	pidMask := match.Bits(uint64(0xFFFF) << pidShift)

	runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		// Two processes post receives with identical MPI criteria.
		var cmds []Command
		for pid := uint64(1); pid <= 2; pid++ {
			b, m := match.PackRecv(match.Recv{Context: 1, Source: 3, Tag: 7})
			cmds = append(cmds, Command{
				Bits: withPID(pid, b),
				Mask: m | pidMask, // the PID field always compares
				Tag:  uint32(100 * pid),
			})
		}
		dr.insertAll(cmds)
		dr.p.Sleep(200 * sim.Nanosecond)

		// A header for process 2 must match only process 2's entry, even
		// though process 1's identical (and older) entry sits first.
		hdr := match.Pack(match.Header{Context: 1, Source: 3, Tag: 7})
		dr.dev.PushProbe(Probe{Bits: withPID(2, hdr)})
		r := dr.waitResult()
		if r.Kind != RespMatchSuccess || r.Tag != 200 {
			t.Fatalf("process-2 probe: %v tag=%d, want success tag=200", r.Kind, r.Tag)
		}

		// Process 3 (nothing posted) must miss entirely.
		dr.dev.PushProbe(Probe{Bits: withPID(3, hdr)})
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Fatalf("process-3 probe: %v, want failure", r.Kind)
		}

		// Process 1's entry is still there.
		dr.dev.PushProbe(Probe{Bits: withPID(1, hdr)})
		if r := dr.waitResult(); r.Kind != RespMatchSuccess || r.Tag != 100 {
			t.Fatalf("process-1 probe: %v tag=%d, want success tag=100", r.Kind, r.Tag)
		}
	})
}

// Wildcards still work within a process partition: an ANY_SOURCE receive
// for process 1 must not absorb process 2's traffic.
func TestMultiProcessWildcardIsolation(t *testing.T) {
	const pidShift = 48
	withPID := func(pid uint64, b match.Bits) match.Bits {
		return b | match.Bits(pid<<pidShift)
	}
	pidMask := match.Bits(uint64(0xFFFF) << pidShift)

	runDriver(t, testConfig(32, 8), posted, func(dr *driver) {
		b, m := match.PackRecv(match.Recv{Context: 1, Source: match.AnySource, Tag: 9})
		dr.insertAll([]Command{{Bits: withPID(1, b), Mask: m | pidMask, Tag: 11}})
		dr.p.Sleep(200 * sim.Nanosecond)

		hdr := match.Pack(match.Header{Context: 1, Source: 5, Tag: 9})
		dr.dev.PushProbe(Probe{Bits: withPID(2, hdr)})
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Fatalf("cross-process wildcard absorption: %v", r.Kind)
		}
		dr.dev.PushProbe(Probe{Bits: withPID(1, hdr)})
		if r := dr.waitResult(); r.Kind != RespMatchSuccess || r.Tag != 11 {
			t.Fatalf("in-process wildcard: %v tag=%d", r.Kind, r.Tag)
		}
	})
}
