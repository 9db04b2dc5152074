package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"alpusim/internal/stats"
)

// compareMain compares run records of two commits:
//
//	benchmark compare [-spec BENCHMARK.json] parent/*.json change/*.json
//
// The records' directories tell the sides apart: the first file's
// directory is the parent, the other one the change. Records pair up in
// argument order. It prints one row per workload and end-to-end metric
// and exits 1 when any row is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defs, err := readSpec(*spec)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	sides, err := splitSides(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var runs [2]map[string][]record
	var first *record
	for s, files := range sides {
		runs[s] = map[string][]record{}
		for _, f := range files {
			rec, err := readRecord(f)
			if err != nil {
				fmt.Fprintln(stderr, "compare:", err)
				return 2
			}
			if first == nil {
				first = &rec
			}
			if rec.Seconds != first.Seconds || rec.Scale != first.Scale {
				fmt.Fprintf(stderr, "compare: %s ran %g s at scale %g, the first record %g s at scale %g; both sides must measure alike\n",
					f, rec.Seconds, rec.Scale, first.Seconds, first.Scale)
				return 2
			}
			if !rec.Trace {
				runs[s][rec.Workload] = append(runs[s][rec.Workload], rec)
			}
		}
	}
	var names []string
	for name := range runs[0] {
		if len(runs[1][name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "compare: no workload has untraced runs on both sides")
		return 2
	}
	tb := stats.NewTable("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "runs", "change wins", "verdict")
	worse := false
	for _, name := range names {
		for _, d := range defs {
			p, c := metricValues(runs[0][name], d.name), metricValues(runs[1][name], d.name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			row := compareMetric(p, c, d)
			worse = worse || row.verdict == "worse"
			tb.AddRow(name, d.name+" ("+d.unit+")", quartileText(p), quartileText(c),
				fmt.Sprintf("%d/%d", len(p), len(c)), fmt.Sprintf("%.2f", row.wins), row.verdict)
		}
	}
	tb.Render(stdout)
	if worse {
		return 1
	}
	return 0
}

// splitSides groups files by directory, in order of first appearance.
func splitSides(files []string) ([2][]string, error) {
	var sides [2][]string
	var dirs []string
	for _, f := range files {
		d := filepath.Dir(f)
		i := 0
		for i < len(dirs) && dirs[i] != d {
			i++
		}
		if i == len(dirs) {
			dirs = append(dirs, d)
		}
		if i > 1 {
			return sides, fmt.Errorf("records come from more than two directories: %v", dirs)
		}
		sides[i] = append(sides[i], f)
	}
	if len(dirs) != 2 {
		return sides, fmt.Errorf("want records from two directories (parent, change), got %d", len(dirs))
	}
	return sides, nil
}

// readSpec reads the end-to-end metric definitions from BENCHMARK.json.
func readSpec(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var defs []metricDef
	for _, m := range spec.EndToEnd {
		defs = append(defs, metricDef{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	return defs, nil
}

func metricValues(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

type comparison struct {
	wins    float64 // share of pairs the change won; ties count for neither
	verdict string  // improved, worse, unresolved or unchanged
}

// compareMetric applies the rules for claiming a gain and for finding a
// regression. Improved: the change wins at least nine tenths of the
// pairs and the medians differ, in its favour, by more than the parent's
// quartile spread. Worse: the change's median is worse than the parent's
// by more than the bound. Unresolved: either side's quartile spread
// exceeds the bound, unless every change run beats every parent run.
func compareMetric(parent, change []float64, d metricDef) comparison {
	better := func(a, b float64) bool {
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			won++
		}
	}
	c := comparison{wins: float64(won) / float64(pairs)}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	rel := func(x, base float64) float64 {
		if base == 0 {
			return 0
		}
		return x / base
	}
	worseBy := rel(cm-pm, pm)
	if d.better == "higher" {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := max(rel(pq3-pq1, pm), rel(cq3-cq1, cm))
	switch {
	case c.wins >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		c.verdict = "improved"
	case worseBy > d.bound:
		c.verdict = "worse"
	case spread > d.bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}
