package memsys

import (
	"testing"

	"alpusim/internal/dram"
	"alpusim/internal/params"
	"alpusim/internal/sim"
)

func nicHier() *Hierarchy {
	return New(params.NICCPU(), dram.New(dram.DefaultConfig()))
}

func hostHier() *Hierarchy {
	return New(params.HostCPU(), dram.New(dram.DefaultConfig()))
}

func TestNICHitLatency(t *testing.T) {
	h := nicHier()
	h.Read(0, 0x1000, 4) // warm
	a := h.Read(sim.Microsecond, 0x1000, 4)
	want := params.NICCPU().Clock.Cycles(params.L1HitCycles)
	if !a.L1Hit || a.Latency != want {
		t.Fatalf("warm read: hit=%v lat=%v, want hit lat=%v", a.L1Hit, a.Latency, want)
	}
}

func TestNICMissLatencyNearTableIII(t *testing.T) {
	h := nicHier()
	a := h.Read(0, 0x2000, 4)
	if a.L1Hit {
		t.Fatal("cold read hit")
	}
	// 30 cycles at 2ns = 60ns, plus open-row delta (cold row: 50-20=30ns).
	min := 60 * sim.Nanosecond
	max := 95 * sim.Nanosecond
	if a.Latency < min || a.Latency > max {
		t.Fatalf("cold miss latency = %v, want within [%v, %v]", a.Latency, min, max)
	}
}

func TestHostL2Hit(t *testing.T) {
	h := hostHier()
	base := uint64(0x10000)
	// Fill L1 well past its 64K capacity so base ages out of L1 but stays
	// in the 512K L2.
	h.Read(0, base, 64)
	for i := uint64(1); i <= 2048; i++ {
		h.Read(sim.Time(i)*sim.Microsecond, base+i*64, 4)
	}
	a := h.Read(sim.Second, base, 4)
	if a.L1Hit {
		t.Fatal("expected L1 miss after capacity eviction")
	}
	if !a.L2Hit {
		t.Fatal("expected L2 hit")
	}
	want := params.HostCPU().Clock.Cycles(params.HostCPU().L2Latency)
	if a.Latency != want {
		t.Fatalf("L2 hit latency = %v, want %v", a.Latency, want)
	}
}

func TestHostMemLatency(t *testing.T) {
	h := hostHier()
	a := h.Read(0, 0x5000, 4)
	if a.L1Hit || a.L2Hit {
		t.Fatal("cold access hit a cache")
	}
	// 88 cycles at 0.5ns = 44ns + open-row delta 30ns.
	if a.Latency < 44*sim.Nanosecond || a.Latency > 80*sim.Nanosecond {
		t.Fatalf("host cold miss = %v", a.Latency)
	}
}

func TestMultiLineAccess(t *testing.T) {
	h := nicHier()
	a := h.Read(0, 0x4000, 64) // two 32-byte lines
	if a.Lines != 2 || a.Misses != 2 {
		t.Fatalf("Lines=%d Misses=%d, want 2,2", a.Lines, a.Misses)
	}
	b := h.Read(sim.Microsecond, 0x4000, 64)
	if !b.L1Hit || b.Misses != 0 {
		t.Fatalf("warm multi-line: hit=%v misses=%d", b.L1Hit, b.Misses)
	}
}

func TestPartialHitNotL1Hit(t *testing.T) {
	h := nicHier()
	h.Read(0, 0x6000, 4) // first line only
	a := h.Read(sim.Microsecond, 0x6000, 64)
	if a.L1Hit {
		t.Fatal("access with one missing line reported as full hit")
	}
	if a.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", a.Misses)
	}
}

func TestWriteAllocates(t *testing.T) {
	h := nicHier()
	h.Write(0, 0x7000, 4)
	a := h.Read(sim.Microsecond, 0x7000, 4)
	if !a.L1Hit {
		t.Fatal("write did not allocate the line")
	}
}

func TestZeroSizeAccess(t *testing.T) {
	h := nicHier()
	a := h.Read(0, 0x8000, 0)
	if a.Lines != 1 {
		t.Fatalf("zero-size access touched %d lines, want 1", a.Lines)
	}
}

// The calibration check behind the paper's §VI-B numbers: traversing a
// queue that fits in the 32K NIC L1 costs ~15 ns/entry; one that has been
// evicted costs ~60-75 ns/entry.
func TestPerEntryTraversalCalibration(t *testing.T) {
	h := nicHier()
	clock := params.NICCPU().Clock
	entry := uint64(params.QueueEntryBytes)

	// Warm 100 entries, then traverse.
	for i := uint64(0); i < 100; i++ {
		h.Read(0, i*entry, params.QueueEntryBytes)
	}
	var total sim.Time
	for i := uint64(0); i < 100; i++ {
		a := h.Read(sim.Microsecond, i*entry, params.QueueEntryBytes)
		total += a.Latency + clock.Cycles(params.TraverseCyclesPerEntry)
	}
	perEntry := total / 100
	if perEntry < 12*sim.Nanosecond || perEntry > 18*sim.Nanosecond {
		t.Errorf("in-cache per-entry cost = %v, want ~15ns (paper §VI-B)", perEntry)
	}

	// Evict with a large sweep, then traverse cold. Compute overlaps the
	// miss as in proc.LoadOverlapped. The wall clock advances with each
	// access, as it does when a processor issues them.
	now := 2 * sim.Microsecond
	for i := uint64(0); i < 4096; i++ {
		a := h.Read(now, 0x100000+i*32, 4)
		now += a.Latency
	}
	total = 0
	for i := uint64(0); i < 100; i++ {
		a := h.Read(now, i*entry, params.QueueEntryBytes)
		c := clock.Cycles(params.TraverseCyclesPerEntry)
		d := c + a.Latency
		if !a.L1Hit && a.Latency > c {
			d = a.Latency
		}
		total += d
		now += d
	}
	perEntry = total / 100
	if perEntry < 55*sim.Nanosecond || perEntry > 80*sim.Nanosecond {
		t.Errorf("out-of-cache per-entry cost = %v, want ~64ns (paper §VI-B)", perEntry)
	}
}
