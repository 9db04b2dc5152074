package bench

import (
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
)

// CellGrid is the cell grid the phases and critpath experiments share:
// one cell per (NIC kind, queue length), each cell a fresh two-rank world
// running the Fig. 5 workload with the posted queue traversed end to end
// (the frac-1.0 diagonal) and the lifecycle recorder attached.
type CellGrid struct {
	Kinds     []NICKind // nil = baseline, alpu-128, alpu-256
	QueueLens []int     // nil = {0, 32, 128, 512}
	MsgSize   int
	Iters     int
	// Plan.Faults runs the cells over a faulty network/device mix
	// (reliability forced on), so retransmit recovery and resync windows
	// show up in the recovery and resync columns.
	Plan
}

func (g CellGrid) kinds() []NICKind {
	if len(g.Kinds) == 0 {
		return []NICKind{Baseline, ALPU128, ALPU256}
	}
	return g.Kinds
}

func (g CellGrid) queueLens() []int {
	if len(g.QueueLens) == 0 {
		return []int{0, 32, 128, 512}
	}
	return g.QueueLens
}

// mapGrid measures every cell of g on g.Jobs workers and returns the
// results in enumeration order (kind-major) at any parallelism. measure
// gets the cell's point config, its world already carrying a private
// lifecycle recorder (World.Causal) and, with g.Faults, a private copy
// of the fault model under the chaos watchdog; it adds any further
// recorders, runs the point and harvests it.
func mapGrid[P any](g CellGrid, measure func(kind NICKind, q int, pc PrepostedConfig) P) []P {
	kinds, lens := g.kinds(), g.queueLens()
	return sweep.Map(g.Jobs, len(kinds)*len(lens), func(i int) P {
		kind, q := kinds[i/len(lens)], lens[i%len(lens)]
		pc := PrepostedConfig{NIC: NICConfig(kind), MsgSize: g.MsgSize, Iters: g.Iters, Plan: g.Plan}
		pc.World.Causal = telemetry.NewCausal()
		if g.Faults != nil {
			fm := *g.Faults
			pc.World.Faults, pc.World.WatchdogLimit = &fm, chaosWatchdogLimit
		}
		return measure(kind, q, pc)
	})
}
