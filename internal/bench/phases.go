package bench

import (
	"fmt"
	"io"

	"alpusim/internal/mpi"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/telemetry"
)

// The phases experiment: the Fig. 5 full-traversal workload re-run with
// the per-message lifecycle recorder attached, decomposing the end-to-end
// latency into the pipeline phases of telemetry.Causal.Breakdown. The phase
// columns telescope — they sum exactly to the independently measured
// end-to-end latency — which is the cross-check RenderPhases exposes as
// its last two columns.

// PhasesConfig parameterises the phase-breakdown experiment over the
// shared cell grid; every cell world is fully instrumented.
type PhasesConfig struct {
	CellGrid
	// Trace additionally collects a Chrome trace per cell
	// (PhasePoint.Tracer), ready for telemetry.WriteTrace.
	Trace bool
	// Series additionally samples per-NIC time series per cell
	// (PhasePoint.Series) at the default interval — the waterline data
	// behind the run report and the /timeseries endpoint.
	Series bool
}

// PhasePoint is one cell of the experiment.
type PhasePoint struct {
	Kind     NICKind
	QueueLen int
	// Latency is the final-iteration end-to-end latency, measured the
	// same way as the Fig. 5 benchmark (host send start -> host recv
	// completion); Breakdown is that iteration's phase decomposition,
	// whose Durs sum to Breakdown.Total == Latency.
	Latency   sim.Time
	Breakdown telemetry.Breakdown
	// Totals aggregates every instrumented message the cell completed
	// (probes, acks, barrier traffic), for mean-phase reporting.
	Totals telemetry.Totals
	// Metrics is the cell world's registry snapshot; Tracer is non-nil
	// when PhasesConfig.Trace was set, Series when PhasesConfig.Series
	// was.
	Metrics telemetry.Snapshot
	Tracer  *telemetry.Tracer
	Series  *telemetry.Sampler
}

// RunPhases measures every cell of the grid. Cells are independent
// worlds with private recorders and run on cfg.Jobs workers; the result
// order is the enumeration order regardless of parallelism.
func RunPhases(cfg PhasesConfig) []PhasePoint {
	return mapGrid(cfg.CellGrid, func(kind NICKind, q int, pc PrepostedConfig) PhasePoint {
		if cfg.Trace {
			pc.World.Tracer = telemetry.NewTracer()
		}
		if cfg.Series {
			pc.World.Series = telemetry.NewSampler(0, 0)
		}
		lat, w := prepostedPoint(pc, q, q)
		bd, _ := pc.World.Causal.Breakdown(mpi.MsgKey(0, matchBase+pc.iters()-1))
		return PhasePoint{
			Kind: kind, QueueLen: q, Latency: lat,
			Breakdown: bd, Totals: pc.World.Causal.Totals(),
			Metrics: w.TelemetrySnapshot(), Tracer: pc.World.Tracer,
			Series: pc.World.Series,
		}
	})
}

// MergedMetrics folds the per-cell registry snapshots in enumeration
// order (counters sum, gauges max, histograms merge).
func MergedMetrics(points []PhasePoint) telemetry.Snapshot {
	var s telemetry.Snapshot
	for _, p := range points {
		s.Merge(p.Metrics)
	}
	return s
}

// MergedSeries folds the per-cell samplers into one set, each cell's
// series prefixed "kind/q<len>/" (telemetry.MergeSeries). Returns nil
// when sampling was off.
func MergedSeries(points []PhasePoint) *telemetry.Sampler {
	return telemetry.MergeSeries(len(points), func(i int) (string, *telemetry.Sampler) {
		p := points[i]
		return fmt.Sprintf("%s/q%d/", p.Kind, p.QueueLen), p.Series
	})
}

// Tracers collects the non-nil per-cell tracers in enumeration order,
// ready for telemetry.WriteTrace.
func Tracers(points []PhasePoint) []*telemetry.Tracer {
	var ts []*telemetry.Tracer
	for _, p := range points {
		if p.Tracer != nil {
			ts = append(ts, p.Tracer)
		}
	}
	return ts
}

// RenderPhases writes the phase table: one row per cell, the phase
// columns in pipeline order (nanoseconds, final iteration), their
// telescoped total, and the independently measured end-to-end latency —
// total and e2e agreeing is the built-in consistency check.
func RenderPhases(out io.Writer, points []PhasePoint) {
	hdr := []string{"nic", "qlen"}
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		hdr = append(hdr, p.String())
	}
	hdr = append(hdr, "total", "e2e")
	tb := stats.NewTable(hdr...)
	for _, pt := range points {
		row := []any{pt.Kind.String(), pt.QueueLen}
		for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
			row = append(row, pt.Breakdown.Durs[p].Nanoseconds())
		}
		row = append(row, pt.Breakdown.Total.Nanoseconds(), pt.Latency.Nanoseconds())
		tb.AddRow(row...)
	}
	tb.Render(out)
}
