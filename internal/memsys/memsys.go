// Package memsys composes the cache and DRAM models into the per-processor
// memory hierarchies of the paper's Table III: the NIC processor has a
// single 32K 64-way L1 and a 30-32 cycle path to memory; the host has a 64K
// 2-way L1, a 512K L2, and an 85-90 cycle path to memory.
//
// The Table III "latency to main memory" figures are treated as the
// open-row access latency; DRAM row misses and bank contention add on top
// through the open-row model (§V-B).
package memsys

import (
	"alpusim/internal/cache"
	"alpusim/internal/dram"
	"alpusim/internal/params"
	"alpusim/internal/sim"
)

// Access describes the outcome of one memory reference.
type Access struct {
	Latency sim.Time
	L1Hit   bool
	L2Hit   bool // meaningful only when an L2 exists and L1 missed
	Lines   int  // cache lines touched
	Misses  int  // lines that went to memory (or L2)
}

// Hierarchy is one processor's view of memory.
type Hierarchy struct {
	cpu params.CPU
	l1  *cache.Cache
	l2  *cache.Cache // nil when the CPU has no L2
	mem *dram.DRAM
}

// New builds the hierarchy for cpu in front of the shared DRAM mem.
func New(cpu params.CPU, mem *dram.DRAM) *Hierarchy {
	pol := cache.LRU
	if cpu.L1RandomRepl {
		pol = cache.Random
	}
	h := &Hierarchy{
		cpu: cpu,
		l1:  cache.New(cache.Config{Size: cpu.L1Size, Assoc: cpu.L1Assoc, LineSize: cpu.L1Line, Policy: pol}),
		mem: mem,
	}
	if cpu.L2Size > 0 {
		h.l2 = cache.New(cache.Config{Size: cpu.L2Size, Assoc: cpu.L2Assoc, LineSize: cpu.L1Line})
	}
	return h
}

// L1 exposes the level-1 cache for statistics and tests.
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// L2 exposes the level-2 cache; nil when absent.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// CPU returns the processor parameters this hierarchy models.
func (h *Hierarchy) CPU() params.CPU { return h.cpu }

// lineLatency resolves one line reference.
func (h *Hierarchy) lineLatency(now sim.Time, addr uint64, write bool) (sim.Time, bool, bool) {
	hitLat := h.cpu.Clock.Cycles(int64(params.L1HitCycles))
	r := h.l1.Access(addr, write)
	if r.Hit {
		return hitLat, true, false
	}
	if r.Writeback {
		h.fillFromBelow(now, r.Victim, true)
	}
	lat, l2hit := h.fillFromBelow(now, addr, false)
	return lat, false, l2hit
}

// fillFromBelow models an L1 miss being serviced by L2 (if present) or
// memory. Writebacks update DRAM open-row state but are posted (they do not
// add to the demand latency).
func (h *Hierarchy) fillFromBelow(now sim.Time, addr uint64, posted bool) (sim.Time, bool) {
	if h.l2 != nil {
		r := h.l2.Access(addr, false)
		if r.Hit {
			if posted {
				return 0, true
			}
			return h.cpu.Clock.Cycles(h.cpu.L2Latency), true
		}
		if r.Writeback {
			h.mem.WriteBack(now, r.Victim)
		}
	}
	if posted {
		h.mem.WriteBack(now, addr)
		return 0, false
	}
	dl := h.mem.Access(now, addr)
	// Table III latency covers the open-row case; row misses and bank
	// stalls appear as the difference above the row-hit latency.
	extra := dl - params.DRAMRowHitLatency
	if extra < 0 {
		extra = 0
	}
	return h.cpu.Clock.Cycles(h.cpu.MemLatency) + extra, false
}

// Read models a load of size bytes at addr beginning at time now. Lines
// are resolved serially (both Table III processors have a single memory
// port on the path that matters here).
func (h *Hierarchy) Read(now sim.Time, addr uint64, size int) Access {
	return h.access(now, addr, size, false)
}

// Write models a store (write-allocate, write-back).
func (h *Hierarchy) Write(now sim.Time, addr uint64, size int) Access {
	return h.access(now, addr, size, true)
}

func (h *Hierarchy) access(now sim.Time, addr uint64, size int, write bool) Access {
	if size <= 0 {
		size = 1
	}
	ls := uint64(h.cpu.L1Line)
	out := Access{L1Hit: true}
	for a := addr &^ (ls - 1); a < addr+uint64(size); a += ls {
		lat, l1hit, l2hit := h.lineLatency(now+out.Latency, a, write)
		out.Latency += lat
		out.Lines++
		if !l1hit {
			out.Misses++
			out.L1Hit = false
		}
		if out.Lines == 1 {
			out.L2Hit = l2hit
		}
	}
	return out
}

// Prefetch updates cache and DRAM state for [addr, addr+size) without
// accumulating demand latency: it models lines fetched under an already
// outstanding miss (hardware prefetch / memory-level parallelism), e.g.
// the remainder of a queue entry behind its match line. The cache-pressure
// side effects are fully modelled; only the latency is hidden.
func (h *Hierarchy) Prefetch(now sim.Time, addr uint64, size int, write bool) {
	if size <= 0 {
		return
	}
	ls := uint64(h.cpu.L1Line)
	for a := addr &^ (ls - 1); a < addr+uint64(size); a += ls {
		h.lineLatency(now, a, write)
	}
}
