package alpu

import (
	"testing"

	"alpusim/internal/match"
)

// INVALIDATE clears exactly the tagged cell: older and newer neighbours
// keep their priority order, probes that would have hit the cleared entry
// fall through to the next candidate, and an absent tag is a silent no-op.
func TestDeviceInvalidate(t *testing.T) {
	cfg := testConfig(16, 8)
	probe := func(tag int32) Probe {
		return Probe{Bits: match.Pack(match.Header{Context: 1, Source: 2, Tag: tag})}
	}
	entry := func(tag int32, devTag uint32) Command {
		b, m := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: tag})
		return Command{Bits: b, Mask: m, Tag: devTag}
	}
	dev := runDriver(t, cfg, posted, func(dr *driver) {
		dr.insertAll([]Command{entry(10, 100), entry(11, 101), entry(12, 102)})
		dr.pushCommandWait(Command{Op: OpInvalidate, Tag: 101})
		// The invalidated entry must not match; its neighbours must.
		dev := dr.dev
		dev.PushProbe(probe(11))
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Errorf("probe for invalidated entry: got %v, want MATCH FAILURE", r.Kind)
		}
		dev.PushProbe(probe(10))
		if r := dr.waitResult(); r.Kind != RespMatchSuccess || r.Tag != 100 {
			t.Errorf("older neighbour: got %v tag %d", r.Kind, r.Tag)
		}
		dev.PushProbe(probe(12))
		if r := dr.waitResult(); r.Kind != RespMatchSuccess || r.Tag != 102 {
			t.Errorf("newer neighbour: got %v tag %d", r.Kind, r.Tag)
		}
		// Unknown tag: silent no-op, nothing discarded, no response. A
		// subsequent probe must still behave (FIFO not wedged).
		dr.pushCommandWait(Command{Op: OpInvalidate, Tag: 999})
		dev.PushProbe(probe(10))
		if r := dr.waitResult(); r.Kind != RespMatchFailure {
			t.Errorf("after no-op invalidate: got %v, want MATCH FAILURE (entry consumed)", r.Kind)
		}
	})
	if dev.stats.Invalidates != 1 {
		t.Errorf("Invalidates = %d, want 1", dev.stats.Invalidates)
	}
	if dev.stats.Discarded != 0 {
		t.Errorf("Discarded = %d, want 0", dev.stats.Discarded)
	}
	if dev.Occupancy() != 0 {
		t.Errorf("Occupancy = %d, want 0 (matches consumed the rest)", dev.Occupancy())
	}
}
