package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/telemetry"
)

// The critpath experiment: the Fig. 5 full-traversal workload re-run
// with the causal recorder attached, turning each cell's world into a
// causal DAG and reporting, per cell, the critical path from the first
// inject to the last completion, the per-resource blame table (fractions
// sum to exactly 100.0%), a what-if table (predicted critical path with
// one resource's edges zeroed — the Fig. 5 argument "what would a free
// search buy" computed from first principles), and the top-K slowest
// message chains. Every number is a pure function of the simulation, so
// the rendered report is byte-identical at any -jobs / -par setting.

// CritPathConfig parameterises the causal critical-path experiment over
// the shared cell grid.
type CritPathConfig struct {
	CellGrid
	// TopK is the number of slowest chains kept per cell (default 3).
	TopK int
}

// CritPathPoint is one cell of the experiment.
type CritPathPoint struct {
	Kind     NICKind
	QueueLen int
	// Latency is the final-iteration end-to-end latency, measured exactly
	// as in the Fig. 5 benchmark; Report is the cell world's full causal
	// analysis.
	Latency sim.Time
	Report  telemetry.CausalReport
}

// Label names the cell for the obs /critpath endpoint.
func (p CritPathPoint) Label() string {
	return fmt.Sprintf("%s q=%d", p.Kind.String(), p.QueueLen)
}

func (c CritPathConfig) topK() int {
	if c.TopK <= 0 {
		return 3
	}
	return c.TopK
}

// RunCritPath measures every cell of the grid. Cells are independent
// worlds with private recorders and run on cfg.Jobs workers; the result
// order is the enumeration order regardless of parallelism.
func RunCritPath(cfg CritPathConfig) []CritPathPoint {
	return mapGrid(cfg.CellGrid, func(kind NICKind, q int, pc PrepostedConfig) CritPathPoint {
		lat, _ := prepostedPoint(pc, q, q)
		rep, _ := pc.World.Causal.Analyze(cfg.topK())
		return CritPathPoint{Kind: kind, QueueLen: q, Latency: lat, Report: rep}
	})
}

// permilleStr renders a permille share as a fixed-point percentage
// ("12.3%"), keeping the output integer-deterministic.
func permilleStr(pm int) string {
	return fmt.Sprintf("%d.%d%%", pm/10, pm%10)
}

// RenderCritPath writes the three report tables: per-cell blame (one
// resource column each, shares of the critical path summing to 100.0%),
// the what-if table (predicted critical path and speedup per zeroed
// resource), and the top-K slowest chains per cell.
func RenderCritPath(out io.Writer, points []CritPathPoint) {
	hdr := []string{"nic", "qlen", "msgs", "critpath_ns"}
	for res := telemetry.Resource(0); res < telemetry.NumResources; res++ {
		hdr = append(hdr, res.String())
	}
	tb := stats.NewTable(hdr...)
	for _, pt := range points {
		row := []any{pt.Kind.String(), pt.QueueLen, pt.Report.Messages,
			pt.Report.CriticalPath.Nanoseconds()}
		for _, b := range pt.Report.Blame {
			row = append(row, permilleStr(b.Permille))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, "critical-path blame (share of critical path per resource):")
	tb.Render(out)

	wt := stats.NewTable(hdr...)
	for _, pt := range points {
		row := []any{pt.Kind.String(), pt.QueueLen, pt.Report.Messages,
			pt.Report.CriticalPath.Nanoseconds()}
		for _, wi := range pt.Report.WhatIf {
			row = append(row, fmt.Sprintf("%.2fx", wi.Speedup))
		}
		wt.AddRow(row...)
	}
	fmt.Fprintln(out, "\nwhat-if speedups (critical path re-walked with one resource free):")
	wt.Render(out)

	fmt.Fprintln(out, "\nslowest causal chains:")
	for _, pt := range points {
		fmt.Fprintf(out, "  %s:\n", pt.Label())
		for _, ch := range pt.Report.TopK {
			fmt.Fprintf(out, "    %s\n", ch.String())
		}
	}
}

// critPathDoc is the deterministic JSON shape of the experiment report.
type critPathDoc struct {
	Cells []critPathCell `json:"cells"`
}

type critPathCell struct {
	NIC        string                 `json:"nic"`
	QueueLen   int                    `json:"queue_len"`
	E2ELatency sim.Time               `json:"e2e_latency_ps"`
	Report     telemetry.CausalReport `json:"report"`
}

// WriteCritPathJSON renders the machine-readable report: one cell per
// (kind, queue length) in enumeration order. Identical runs produce
// identical bytes.
func WriteCritPathJSON(out io.Writer, points []CritPathPoint) error {
	doc := critPathDoc{Cells: []critPathCell{}}
	for _, pt := range points {
		doc.Cells = append(doc.Cells, critPathCell{
			NIC: pt.Kind.String(), QueueLen: pt.QueueLen,
			E2ELatency: pt.Latency, Report: pt.Report,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(data, '\n'))
	return err
}
