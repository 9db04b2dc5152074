package alpu

import (
	"fmt"
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// Micro-benchmarks of the Device hot paths — insert, search at depth
// (hit and miss), and the compaction drain after an insert fragments the
// array — across the §VI-A geometry grid (128/256 cells × block
// 8/16/32). go test -bench reaches them through BenchmarkMicro. The
// numbers measure host cost of simulating the operation (the
// model-performance target of DESIGN.md), not simulated latency — that
// is what the figure benchmarks report.

// MicroCase names one runnable micro-benchmark.
type MicroCase struct {
	Name  string
	Bench func(b *testing.B)
}

// MicroGeometries is the benchmark grid: the geometries §VI-A explores.
func MicroGeometries() []Geometry {
	var gs []Geometry
	for _, cells := range []int{128, 256} {
		for _, block := range []int{8, 16, 32} {
			gs = append(gs, Geometry{Cells: cells, BlockSize: block})
		}
	}
	return gs
}

// MicroCases enumerates every micro-benchmark on the geometry grid.
func MicroCases() []MicroCase {
	var cases []MicroCase
	for _, g := range MicroGeometries() {
		g := g
		suffix := fmt.Sprintf("/cells=%d/block=%d", g.Cells, g.BlockSize)
		cases = append(cases,
			MicroCase{"insert" + suffix, func(b *testing.B) { microInsert(b, g) }},
			MicroCase{"search-hit" + suffix, func(b *testing.B) { microSearch(b, g, true) }},
			MicroCase{"search-miss" + suffix, func(b *testing.B) { microSearch(b, g, false) }},
			MicroCase{"compact-drain" + suffix, func(b *testing.B) { microCompactDrain(b, g) }},
			MicroCase{"compact-burst" + suffix, func(b *testing.B) { microCompactBurst(b, g) }},
		)
	}
	return cases
}

func microConfig(g Geometry) Config {
	cfg := DefaultConfig(g.Cells)
	cfg.Geometry = g
	return cfg
}

// microFill writes a compacted suffix of n entries directly (white-box),
// the lowest of which matches microProbe() when withMatch is set.
func microFill(d *Device, n int, withMatch bool) {
	hitBits, hitMask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	missBits, missMask := match.PackRecv(match.Recv{Context: 7, Source: 8, Tag: 9})
	cells := len(d.cells)
	for i := 0; i < n; i++ {
		idx := cells - n + i
		c := cell{bits: missBits, mask: missMask, tag: uint32(i)}
		if withMatch && i == 0 {
			c.bits, c.mask = hitBits, hitMask
		}
		placeCell(d, idx, c)
	}
}

func microProbe() Probe {
	return Probe{Bits: match.Pack(match.Header{Context: 1, Source: 2, Tag: 3})}
}

// microInsert measures one INSERT through the command FIFO, including
// the climb out of cell 0, with the array held near half occupancy by
// periodic resets (amortised into the loop).
func microInsert(b *testing.B, g Geometry) {
	eng := sim.NewEngine()
	d := MustDevice(eng, "bench", microConfig(g), posted)
	bits, mask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	eng.Spawn("drv", func(p *sim.Process) {
		ack := func() {
			p.WaitCond(d.Results.NotEmpty, func() bool { return d.Results.Len() > 0 })
			d.Results.Pop()
		}
		push := func(c Command) {
			for !d.PushCommand(c) {
				p.WaitCond(d.Commands.NotFull, func() bool { return !d.Commands.Full() })
			}
		}
		push(Command{Op: OpStartInsert})
		ack()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d.Occupancy() >= g.Cells/2 {
				push(Command{Op: OpStopInsert})
				push(Command{Op: OpReset})
				push(Command{Op: OpStartInsert})
				ack()
			}
			push(Command{Op: OpInsert, Bits: bits, Mask: mask, Tag: uint32(i)})
		}
		b.StopTimer()
	})
	eng.Run()
}

// microSearch measures one probe through the header FIFO against a
// half-full array. The hit case matches the deepest (lowest-index)
// entry, so the priority scan traverses the full occupied suffix; the
// deleted entry is restored between iterations (white-box) to keep the
// depth constant.
func microSearch(b *testing.B, g Geometry, hit bool) {
	eng := sim.NewEngine()
	d := MustDevice(eng, "bench", microConfig(g), posted)
	depth := g.Cells / 2
	microFill(d, depth, hit)
	snapshot := append([]cell(nil), d.cells...)
	validSnap := append([]uint64(nil), d.valid...)
	probe := microProbe()
	eng.Spawn("drv", func(p *sim.Process) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.PushProbe(probe)
			p.WaitCond(d.Results.NotEmpty, func() bool { return d.Results.Len() > 0 })
			r, _ := d.Results.Pop()
			if hit {
				if r.Kind != RespMatchSuccess {
					b.Fatalf("want hit, got %v", r.Kind)
				}
				copy(d.cells, snapshot)
				copy(d.valid, validSnap)
			} else if r.Kind != RespMatchFailure {
				b.Fatalf("want miss, got %v", r.Kind)
			}
		}
		b.StopTimer()
	})
	eng.Run()
}

// drainLayout builds the compaction benchmarks' layout: a fresh entry in
// cell 0 below a compacted half-full suffix. It returns the device and
// copies of its cells and bitmap to restore before each drain.
func drainLayout(g Geometry) (d *Device, cells []cell, valid []uint64) {
	d = MustDevice(sim.NewEngine(), "bench", microConfig(g), posted)
	microFill(d, g.Cells/2, false)
	bits, mask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	placeCell(d, 0, cell{bits: bits, mask: mask, tag: 99})
	return d, append([]cell(nil), d.cells...), append([]uint64(nil), d.valid...)
}

// microCompactDrain measures a full idle compaction of drainLayout,
// stepped one cycle at a time until quiescent. This times the per-cycle
// step kernel directly, without engine events.
func microCompactDrain(b *testing.B, g Geometry) {
	d, cells, valid := drainLayout(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(d.cells, cells)
		copy(d.valid, valid)
		for d.shiftStep() {
		}
	}
}

// microCompactBurst drains the same layout through materializeSteps in
// the chunks the idle drain's timers cover (armDrainChunk), timing the
// batched path the device runs.
func microCompactBurst(b *testing.B, g Geometry) {
	d, cells, valid := drainLayout(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(d.cells, cells)
		copy(d.valid, valid)
		for d.needsCompaction() {
			d.materializeSteps(min(d.holesAboveLowestValid(), drainChunk))
		}
	}
}
