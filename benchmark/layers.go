package main

import (
	"strings"

	"alpusim/internal/mpi"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// counter names one simulated-work count, read through a layer's public
// getters or the world's telemetry snapshot.
type counter int

const (
	cEvents             counter = iota // sim: events executed over every engine
	cEntriesTraversed                  // nic: software queue entries examined
	cPackets                           // nic: packets the firmware handled
	cALPUHits                          // nic: ALPU match successes
	cALPUMisses                        // nic: ALPU match failures
	cNICL1Accesses                     // memsys: NIC processor L1 lookups
	cNICL1Hits                         // memsys: NIC processor L1 hits
	cALPUSearches                      // alpu: probes processed
	cALPUInserts                       // alpu: entries written
	cALPUShiftCycles                   // alpu: cycles compaction moved data
	cFabricCacheHits                   // match: dispatch-cache hits
	cFabricCacheMisses                 // match: dispatch-cache misses
	cOverflowPromotions                // match: hash-overflow promotions
	cNetPackets                        // network: packets transmitted
	cNetBytes                          // network: bytes transmitted
	cTraceEvents                       // telemetry: events the tracer exported
	numCounters
)

// layerCounts is the simulated work of a world or a sum of worlds. Counts
// are pure functions of the simulation, so every pass of a world list
// repeats them.
type layerCounts [numCounters]uint64

func (c *layerCounts) add(o layerCounts) {
	for i, v := range o {
		c[i] += v
	}
}

func harvestCounts(w *mpi.World, snap telemetry.Snapshot) layerCounts {
	var c layerCounts
	engines := w.Engines
	if engines == nil {
		engines = []*sim.Engine{w.Eng}
	}
	for _, e := range engines {
		c[cEvents] += e.Executed()
	}
	for i, n := range w.NICs {
		st := n.Stats()
		c[cEntriesTraversed] += st.EntriesTraversed
		c[cPackets] += st.PacketsHandled
		c[cALPUHits] += st.ALPUPostedHits + st.ALPUUnexpHits
		c[cALPUMisses] += st.ALPUPostedMisses + st.ALPUUnexpMisses
		l1 := n.Mem().L1()
		c[cNICL1Accesses] += l1.Accesses()
		c[cNICL1Hits] += l1.Hits()
		c[cNetPackets] += w.Net.TxPackets(i)
		c[cNetBytes] += w.Net.TxBytes(i)
	}
	// ALPU units publish under nic<i>/alpu/<unit>/...; their fault
	// counters sit one level deeper under other leaf names.
	for name, v := range snap.Counters {
		if !strings.Contains(name, "/alpu/") {
			continue
		}
		switch name[strings.LastIndexByte(name, '/')+1:] {
		case "matches":
			c[cALPUSearches] += v
		case "inserts":
			c[cALPUInserts] += v
		case "shift_cycles":
			c[cALPUShiftCycles] += v
		}
	}
	c[cFabricCacheHits] = snap.Sum("fabric/cache_hits")
	c[cFabricCacheMisses] = snap.Sum("fabric/cache_misses")
	c[cOverflowPromotions] = snap.Sum("fabric/overflow_promotions")
	return c
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
