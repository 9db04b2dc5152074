// Command benchgate compares two `go test -bench` outputs and fails when
// any benchmark present in both regressed by more than a threshold on
// ns/op, or, where both outputs carry -benchmem columns, on allocs/op.
// An allocation count does not move with host noise, so its allowed rise
// is the same fraction of the baseline rounded up to at least one
// allocation. A benchmark may also report exact counts of its own with
// b.ReportMetric, in units ending in "/op" (events/op, switches/op): a
// deterministic simulation repeats them exactly, so any rise in a count
// both outputs report fails the gate. It is the CI regression gate for
// the simulator's performance work: CI runs scripts/benchgate.sh on the
// parent commit and on the change, back to back on the same host, and
// compares the parent's output (the baseline) with the change's, like
// benchstat would but with a pass/fail verdict and no external
// dependency.
//
// Usage:
//
//	benchgate [-threshold 0.15] baseline.txt current.txt
//
// Benchmarks appearing in only one file are reported but never fail the
// gate (renames should not break unrelated PRs); a benchmark that got
// faster is reported as an improvement. Exit status 1 on regression, 2 on
// usage or parse errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op and allocs/op regression before failing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-threshold f] baseline.txt current.txt")
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	out, failed := report(base, cur, *threshold)
	os.Stdout.WriteString(out)
	if failed {
		os.Exit(1)
	}
}

// report renders the sorted per-benchmark delta table — the same table
// on success and failure, so CI logs always show the perf trajectory —
// and returns it with the gate verdict. All output is deterministic:
// compared benchmarks sort by name, as do NEW/MISSING entries.
func report(base, cur map[string]bench, threshold float64) (string, bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-60s %12s    %12s  %s\n", "", "benchmark", "old ns/op", "new ns/op", "delta")
	var compared, faster, regressed, missing, rose int
	for _, name := range names {
		old := base[name]
		c, ok := cur[name]
		if !ok {
			missing++
			fmt.Fprintf(&b, "MISSING  %-60s (in baseline only)\n", name)
			continue
		}
		compared++
		ratio := c.ns / old.ns
		allocsGated := old.allocs >= 0 && c.allocs >= 0
		var counts strings.Builder
		countRose := false
		for _, unit := range sortedKeys(old.counts) {
			if v, ok := c.counts[unit]; ok {
				if v > old.counts[unit] {
					countRose = true
					rose++
				}
				fmt.Fprintf(&counts, "  %s %.0f -> %.0f", unit, old.counts[unit], v)
			}
		}
		status := "ok"
		switch {
		case ratio > 1+threshold, countRose,
			allocsGated && c.allocs-old.allocs > max(math.Ceil(old.allocs*threshold), 1):
			regressed++
			status = "FAIL"
		case ratio < 1-threshold:
			faster++
			status = "faster"
		}
		fmt.Fprintf(&b, "%-8s %-60s %12.1f -> %12.1f  %+.1f%%", status, name, old.ns, c.ns, (ratio-1)*100)
		if allocsGated {
			fmt.Fprintf(&b, "  allocs/op %.0f -> %.0f", old.allocs, c.allocs)
		}
		b.WriteString(counts.String())
		b.WriteString("\n")
	}
	var added []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(&b, "NEW      %-60s (not in baseline)\n", name)
	}
	fmt.Fprintf(&b, "benchgate: %d compared (%d faster, %d regressed), %d new, %d missing\n",
		compared, faster, regressed, len(added), missing)
	if rose > 0 {
		fmt.Fprintf(&b, "benchgate: %d exact count(s) rose\n", rose)
	}
	if regressed > 0 {
		fmt.Fprintf(&b, "benchgate: regression over %.0f%% threshold\n", threshold*100)
		return b.String(), true
	}
	b.WriteString("benchgate: ok\n")
	return b.String(), false
}

func parseFile(path string) (map[string]bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parse(bufio.NewScanner(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// bench is one benchmark's result: ns/op and allocs/op, the latter -1
// when the output has no -benchmem columns for it, and the exact counts
// it reports itself, by unit.
type bench struct {
	ns, allocs float64
	counts     map[string]float64
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parse extracts name -> ns/op, allocs/op and the counts (units ending
// in "/op" other than ns, B and allocs) from `go test -bench` output. A
// result line is "BenchmarkName[-P] <iters> <value> ns/op [...]"; the -P
// GOMAXPROCS suffix is stripped so baselines transfer across -cpu
// settings. Duplicate names (e.g. -count > 1) keep the minimum of each,
// the least-noise estimate of the benchmark's true cost.
func parse(sc *bufio.Scanner) (map[string]bench, error) {
	out := map[string]bench{}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := bench{ns: -1, allocs: -1, counts: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if !strings.HasSuffix(unit, "/op") || unit == "B/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", unit, sc.Text(), err)
			}
			switch unit {
			case "ns/op":
				r.ns = v
			case "allocs/op":
				r.allocs = v
			default:
				r.counts[unit] = v
			}
		}
		if r.ns < 0 {
			continue
		}
		if prev, ok := out[name]; ok {
			r.ns = min(r.ns, prev.ns)
			if prev.allocs >= 0 && (r.allocs < 0 || prev.allocs < r.allocs) {
				r.allocs = prev.allocs
			}
			for unit, v := range prev.counts {
				if cur, ok := r.counts[unit]; !ok || v < cur {
					r.counts[unit] = v
				}
			}
		}
		out[name] = r
	}
	return out, sc.Err()
}
