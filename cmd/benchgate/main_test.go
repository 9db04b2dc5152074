package main

import (
	"bufio"
	"strings"
	"testing"
)

func parseString(t *testing.T, s string) map[string]bench {
	t.Helper()
	out, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseBenchOutput(t *testing.T) {
	out := parseString(t, `
goos: linux
BenchmarkEngineScheduleStep-8   	12345678	        95.1 ns/op
BenchmarkMicro/insert/cells=128/block=8-8         	  500	      2612 ns/op	      64 B/op	       3 allocs/op
BenchmarkFig5ALPU256-8  	       2	 12345678 ns/op	  1536 sim-ns-q0
PASS
`)
	want := map[string]float64{
		"BenchmarkEngineScheduleStep":             95.1,
		"BenchmarkMicro/insert/cells=128/block=8": 2612,
		"BenchmarkFig5ALPU256":                    12345678,
	}
	if len(out) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(out), len(want), out)
	}
	for name, v := range want {
		if out[name].ns != v {
			t.Errorf("%s = %v, want %v", name, out[name].ns, v)
		}
	}
	if a := out["BenchmarkMicro/insert/cells=128/block=8"].allocs; a != 3 {
		t.Errorf("allocs/op = %v, want 3", a)
	}
	if a := out["BenchmarkEngineScheduleStep"].allocs; a != -1 {
		t.Errorf("allocs/op without -benchmem = %v, want -1", a)
	}
}

func TestParseKeepsMinimumOfDuplicates(t *testing.T) {
	out := parseString(t, `
BenchmarkX-8   10   200 ns/op
BenchmarkX-8   10   150 ns/op
BenchmarkX-8   10   180 ns/op
`)
	if out["BenchmarkX"].ns != 150 {
		t.Fatalf("duplicate handling: got %v, want 150", out["BenchmarkX"].ns)
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	out := parseString(t, "Benchmarks are fun\nBenchmarkY-4 oops\nBenchmarkZ-4 5 10 MB/s\n")
	if len(out) != 0 {
		t.Fatalf("parsed %v from non-result lines", out)
	}
}

func TestReportPasses(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}
	cur := map[string]float64{"BenchmarkA": 110, "BenchmarkB": 150}
	out, failed := report(nsOnly(base), nsOnly(cur), 0.15)
	if failed {
		t.Fatalf("gate failed without a regression:\n%s", out)
	}
	for _, want := range []string{
		"ok       BenchmarkA",
		"faster   BenchmarkB",
		"benchgate: 2 compared (1 faster, 0 regressed), 0 new, 0 missing",
		"benchgate: ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportFailsOnRegression(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100}
	cur := map[string]float64{"BenchmarkA": 130, "BenchmarkB": 101}
	out, failed := report(nsOnly(base), nsOnly(cur), 0.15)
	if !failed {
		t.Fatalf("30%% regression passed the 15%% gate:\n%s", out)
	}
	for _, want := range []string{
		"FAIL     BenchmarkA",
		"ok       BenchmarkB", // the full table prints even on failure
		"+30.0%",
		"benchgate: 2 compared (0 faster, 1 regressed), 0 new, 0 missing",
		"benchgate: regression over 15% threshold",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportNewAndMissingAreSortedAndHarmless(t *testing.T) {
	base := map[string]float64{"BenchmarkGone": 50}
	cur := map[string]float64{"BenchmarkZeta": 1, "BenchmarkAlpha": 2, "BenchmarkMu": 3}
	out, failed := report(nsOnly(base), nsOnly(cur), 0.15)
	if failed {
		t.Fatalf("renames must not fail the gate:\n%s", out)
	}
	if !strings.Contains(out, "MISSING  BenchmarkGone") {
		t.Errorf("missing baseline-only entry:\n%s", out)
	}
	alpha := strings.Index(out, "NEW      BenchmarkAlpha")
	mu := strings.Index(out, "NEW      BenchmarkMu")
	zeta := strings.Index(out, "NEW      BenchmarkZeta")
	if alpha < 0 || mu < 0 || zeta < 0 || !(alpha < mu && mu < zeta) {
		t.Errorf("NEW entries not sorted (alpha=%d mu=%d zeta=%d):\n%s", alpha, mu, zeta, out)
	}
	if !strings.Contains(out, "benchgate: 0 compared (0 faster, 0 regressed), 3 new, 1 missing") {
		t.Errorf("bad summary line:\n%s", out)
	}
}

func TestReportDeterministic(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 1, "BenchmarkB": 2, "BenchmarkC": 3}
	cur := map[string]float64{"BenchmarkB": 2, "BenchmarkD": 4, "BenchmarkE": 5}
	first, _ := report(nsOnly(base), nsOnly(cur), 0.15)
	for i := 0; i < 20; i++ {
		again, _ := report(nsOnly(base), nsOnly(cur), 0.15)
		if again != first {
			t.Fatalf("report output varies across calls:\n%s\nvs\n%s", first, again)
		}
	}
}

// nsOnly is a benchmark set without -benchmem columns.
func nsOnly(ns map[string]float64) map[string]bench {
	out := make(map[string]bench, len(ns))
	for name, v := range ns {
		out[name] = bench{ns: v, allocs: -1}
	}
	return out
}

func TestParseKeepsMinimumAllocsOfDuplicates(t *testing.T) {
	out := parseString(t, `
BenchmarkX-8   10   200 ns/op   64 B/op   7 allocs/op
BenchmarkX-8   10   150 ns/op   80 B/op   9 allocs/op
BenchmarkX-8   10   180 ns/op   64 B/op   6 allocs/op
`)
	if got := out["BenchmarkX"]; got.ns != 150 || got.allocs != 6 {
		t.Fatalf("duplicate handling: got %+v, want ns 150 and allocs 6", got)
	}
}

// The allocs/op gate allows the ns/op threshold's fraction of the
// baseline, rounded up to at least one allocation, and applies only
// when both outputs carry allocs/op.
func TestReportGatesAllocs(t *testing.T) {
	base := map[string]bench{
		"BenchmarkFew":    {ns: 100, allocs: 1},
		"BenchmarkFewBad": {ns: 100, allocs: 1},
		"BenchmarkMany":   {ns: 100, allocs: 100},
		"BenchmarkBad":    {ns: 100, allocs: 100},
		"BenchmarkZero":   {ns: 100, allocs: 0},
		"BenchmarkNoMem":  {ns: 100, allocs: -1},
		"BenchmarkFaster": {ns: 100, allocs: 10},
	}
	cur := map[string]bench{
		"BenchmarkFew":    {ns: 100, allocs: 2},   // +1: the one-alloc floor
		"BenchmarkFewBad": {ns: 100, allocs: 3},   // +2
		"BenchmarkMany":   {ns: 100, allocs: 115}, // +15%
		"BenchmarkBad":    {ns: 100, allocs: 116}, // +16%
		"BenchmarkZero":   {ns: 100, allocs: 1},
		"BenchmarkNoMem":  {ns: 100, allocs: 500},
		"BenchmarkFaster": {ns: 50, allocs: 0},
	}
	out, failed := report(base, cur, 0.15)
	if !failed {
		t.Fatalf("allocs/op regressions passed the gate:\n%s", out)
	}
	for _, want := range []string{
		"ok       BenchmarkFew ",
		"FAIL     BenchmarkFewBad ",
		"ok       BenchmarkMany ",
		"FAIL     BenchmarkBad ",
		"ok       BenchmarkZero ",
		"ok       BenchmarkNoMem ",
		"faster   BenchmarkFaster ",
		"allocs/op 100 -> 116",
		"benchgate: 7 compared (1 faster, 2 regressed), 0 new, 0 missing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-> 500") {
		t.Errorf("allocs/op gated without a baseline count:\n%s", out)
	}
}

// A count a benchmark reports itself (a unit ending in "/op") fails the
// gate on any rise when both outputs carry it, even with ns/op faster;
// a count only one side reports is shown nowhere and gates nothing.
func TestReportGatesCounts(t *testing.T) {
	base := parseString(t, `
BenchmarkWorldRun-2   100   9000 ns/op   12 B/op   3 allocs/op   1200 events/op   40 handoffs/op
BenchmarkWorldRun-2   100   8000 ns/op   12 B/op   3 allocs/op   1200 events/op   40 handoffs/op
BenchmarkSame-2       100   100 ns/op    7 events/op
BenchmarkOneSide-2    100   100 ns/op
`)
	if got := base["BenchmarkWorldRun"]; got.counts["events/op"] != 1200 || got.counts["handoffs/op"] != 40 || got.ns != 8000 {
		t.Fatalf("parsed %+v, want ns 8000, 1200 events/op and 40 handoffs/op", got)
	}
	cur := parseString(t, `
BenchmarkWorldRun-2   100   4000 ns/op   12 B/op   3 allocs/op   1201 events/op   39 handoffs/op
BenchmarkSame-2       100   100 ns/op    7 events/op
BenchmarkOneSide-2    100   100 ns/op    9 events/op
`)
	out, failed := report(base, cur, 0.15)
	if !failed {
		t.Fatalf("a rise of one event/op passed the gate:\n%s", out)
	}
	for _, want := range []string{
		"FAIL     BenchmarkWorldRun ",
		"events/op 1200 -> 1201  handoffs/op 40 -> 39",
		"ok       BenchmarkSame ",
		"ok       BenchmarkOneSide ",
		"benchgate: 3 compared (0 faster, 1 regressed), 0 new, 0 missing",
		"benchgate: 1 exact count(s) rose",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-> 9") {
		t.Errorf("a count only one side reports was compared:\n%s", out)
	}
	base["BenchmarkWorldRun"].counts["events/op"] = 1201
	if out, failed := report(base, cur, 0.15); failed {
		t.Errorf("equal counts and a fall in handoffs/op failed the gate:\n%s", out)
	}
}
