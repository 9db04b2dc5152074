package bench

import (
	"fmt"
	"io"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
)

// The phases experiment: the Fig. 5 full-traversal workload re-run with
// the per-message lifecycle recorder attached, decomposing the end-to-end
// latency into the pipeline phases of telemetry.Causal.Breakdown. The phase
// columns telescope — they sum exactly to the independently measured
// end-to-end latency — which is the cross-check RenderPhases exposes as
// its last two columns.

// PhasesConfig parameterises the phase-breakdown experiment: one cell
// per (NIC kind, queue length), each cell a fresh fully-instrumented
// two-rank world with the posted queue traversed end to end (the Fig. 5
// frac-1.0 diagonal).
type PhasesConfig struct {
	Kinds     []NICKind // nil = baseline, alpu-128, alpu-256
	QueueLens []int     // nil = {0, 32, 128, 512}
	MsgSize   int
	Iters     int
	// Jobs: parallel worlds, as in the figure benchmarks.
	Jobs int
	// Partitions: conservative parallel simulation per cell world, as in
	// PrepostedConfig.
	Partitions int
	// Faults runs the cells over a faulty network (reliability forced
	// on), so retransmit recovery shows up in the recovery column.
	Faults *network.FaultModel
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

func (c PhasesConfig) kinds() []NICKind {
	if len(c.Kinds) == 0 {
		return []NICKind{Baseline, ALPU128, ALPU256}
	}
	return c.Kinds
}

func (c PhasesConfig) queueLens() []int {
	if len(c.QueueLens) == 0 {
		return []int{0, 32, 128, 512}
	}
	return c.QueueLens
}

// RunPhases measures every (kind, queue length) cell. Cells are
// independent worlds with private recorders and run on cfg.Jobs workers;
// the result order is the enumeration order regardless of parallelism.
func RunPhases(cfg PhasesConfig) []PhasePoint {
	type cell struct {
		kind NICKind
		q    int
	}
	var cells []cell
	for _, k := range cfg.kinds() {
		for _, q := range cfg.queueLens() {
			cells = append(cells, cell{k, q})
		}
	}
	iters := PrepostedConfig{Iters: cfg.Iters}.iters()
	return sweep.Map(normJobs(cfg.Jobs), len(cells), func(i int) PhasePoint {
		c := cells[i]
		pc := PrepostedConfig{
			NIC: NICConfig(c.kind), MsgSize: cfg.MsgSize, Iters: iters,
			Partitions: cfg.Partitions,
			Telemetry:  telemetry.NewRegistry(),
			Causal:     telemetry.NewCausal(),
		}
		if cfg.Faults != nil {
			fm := *cfg.Faults
			pc.Faults = &fm
			pc.Watchdog = chaosWatchdogLimit
		}
		if cfg.Trace {
			pc.Tracer = telemetry.NewTracer()
		}
		if cfg.Series {
			pc.Series = telemetry.NewSampler(0, 0)
		}
		lat, w := prepostedPoint(pc, c.q, c.q)
		bd, _ := pc.Causal.Breakdown(mpi.MsgKey(0, matchBase+iters-1))
		return PhasePoint{
			Kind: c.kind, QueueLen: c.q, Latency: lat,
			Breakdown: bd, Totals: pc.Causal.Totals(),
			Metrics: w.TelemetrySnapshot(), Tracer: pc.Tracer,
			Series: pc.Series,
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
// series prefixed "kind/q<len>/" — the experiment-wide waterline data
// behind -report and /timeseries. Returns nil when sampling was off.
func MergedSeries(points []PhasePoint) *telemetry.Sampler {
	var m *telemetry.Sampler
	for _, p := range points {
		if p.Series == nil {
			continue
		}
		if m == nil {
			m = telemetry.NewSampler(p.Series.Interval(), 0)
		}
		m.AbsorbAs(fmt.Sprintf("%s/q%d/", p.Kind, p.QueueLen), p.Series)
	}
	return m
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
