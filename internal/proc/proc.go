// Package proc provides the embedded-processor timing engine that replaces
// SimpleScalar sim-outorder in the paper's methodology (§V-B): firmware and
// host library code are written as Go functions against an Engine that
// charges issue cycles and routes loads/stores through the cache/DRAM
// models, calibrated to the paper's measured per-entry costs. DESIGN.md §2
// documents the substitution.
package proc

import (
	"alpusim/internal/memsys"
	"alpusim/internal/params"
	"alpusim/internal/sim"
)

// Engine charges simulated time to a sim.Process according to a processor
// model. All methods must be called from inside the bound process.
type Engine struct {
	P   *sim.Process
	CPU params.CPU
	Mem *memsys.Hierarchy
}

// New binds a timing engine to a process.
func New(p *sim.Process, cpu params.CPU, mem *memsys.Hierarchy) *Engine {
	return &Engine{P: p, CPU: cpu, Mem: mem}
}

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.P.Now() }

// Cycles charges n processor cycles of computation.
func (e *Engine) Cycles(n int64) {
	if n <= 0 {
		return
	}
	e.P.Sleep(e.CPU.Clock.Cycles(n))
}

// Load charges a read of size bytes at addr.
func (e *Engine) Load(addr uint64, size int) memsys.Access {
	a := e.Mem.Read(e.Now(), addr, size)
	e.P.Sleep(a.Latency)
	return a
}

// Store charges a write of size bytes at addr.
func (e *Engine) Store(addr uint64, size int) memsys.Access {
	a := e.Mem.Write(e.Now(), addr, size)
	e.P.Sleep(a.Latency)
	return a
}

// LoadOverlapped models an out-of-order core executing computeCycles of
// independent work while a load of size bytes at addr is outstanding: the
// charge is compute+hit-latency when the load hits in L1, and
// max(compute, miss-latency) when it misses. This is what keeps the
// baseline's out-of-cache per-entry traversal cost near the paper's ~64 ns
// rather than a fully serialised compute+miss sum.
func (e *Engine) LoadOverlapped(addr uint64, size int, computeCycles int64) memsys.Access {
	a := e.Mem.Read(e.Now(), addr, size)
	compute := e.CPU.Clock.Cycles(computeCycles)
	d := compute + a.Latency
	if !a.L1Hit && a.Latency > compute {
		d = a.Latency
	}
	e.P.Sleep(d)
	return a
}

// Prefetch updates memory state for [addr, addr+size) with no latency
// charge — lines brought in under an outstanding miss (see
// memsys.Hierarchy.Prefetch).
func (e *Engine) Prefetch(addr uint64, size int, write bool) {
	e.Mem.Prefetch(e.Now(), addr, size, write)
}

// BusTransaction charges one transaction on the NIC local bus: the fixed
// 20 ns bus delay (§V-B) plus cycles of processor work to issue it.
func (e *Engine) BusTransaction(cycles int64) {
	e.Cycles(cycles)
	e.P.Sleep(params.NICBusDelay)
}
