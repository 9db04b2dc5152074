package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts its pass processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// A world whose outcome contradicts its expectation and a world whose
// rank panics are both recovered, counted as failed, and kept out of
// the counts; the healthy world still runs.
func TestFailuresAreCounted(t *testing.T) {
	pl := newTenancyPlan(rand.New(rand.NewSource(3)), 4, 2, 16)
	wl := workload{name: "faulty", plan: func(*rand.Rand, int) []job {
		return []job{
			{label: "healthy", build: func() *world { return unexpectedWorld(baselineNIC, 4) }},
			{label: "wrong expectation", build: func() *world {
				wd := tenancyWorld(baselineNIC, pl)
				check := wd.check
				wd.check = func() ([]uint64, error) {
					pl.src[0] = 1 + pl.src[0]%(pl.ranks-1) // expect another sender
					return check()
				}
				return wd
			}},
			{label: "panicking rank", build: func() *world {
				wd := unexpectedWorld(baselineNIC, 4)
				wd.progs[1] = func(r *mpi.Rank) { panic("rank fault") }
				return wd
			}},
		}
	}}
	p := runPass(wl, 1, 3, nil)
	if p.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (first error %q)", p.Failed, p.FirstErr)
	}
	if !strings.Contains(p.FirstErr, "wrong expectation") {
		t.Errorf("first error %q does not name the wrong-expectation world", p.FirstErr)
	}
	if len(p.Worlds) != 3 || p.Counts[cEvents] == 0 {
		t.Errorf("worlds = %d, events = %d; the healthy world must still count", len(p.Worlds), p.Counts[cEvents])
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, wl := range workloads {
		n := worldsAt(wl.worlds, 0.05)
		a, b := runPass(wl, 11, n, nil), runPass(wl, 11, n, nil)
		if a.FirstErr != "" {
			t.Fatalf("%s: %s", wl.name, a.FirstErr)
		}
		if a.Digest != b.Digest || a.Counts != b.Counts {
			t.Errorf("%s: seed 11 gave digests %016x and %016x", wl.name, a.Digest, b.Digest)
		}
		if c := runPass(wl, 12, n, nil); c.Digest == a.Digest {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %016x", wl.name, a.Digest)
		}
		la, lb := labels(wl, 11, n), labels(wl, 12, n)
		if la == lb {
			t.Errorf("%s: seeds 11 and 12 drew the same world list %s", wl.name, la)
		}
		if la != labels(wl, 11, n) {
			t.Errorf("%s: seed 11 drew two world lists", wl.name)
		}
		// The passes of one run draw distinct lists.
		if labels(wl, listSeed(11, 0), n) == labels(wl, listSeed(11, 1), n) {
			t.Errorf("%s: lists 0 and 1 of seed 11 are the same", wl.name)
		}
	}
}

func labels(wl workload, seed int64, n int) string {
	var s []string
	for _, j := range wl.plan(rand.New(rand.NewSource(seed)), n) {
		s = append(s, j.label)
	}
	return strings.Join(s, "; ")
}

// A -scale 0.01 run of every workload, pass processes included,
// untraced and traced, with the shortest run: one pass, or one pair.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		cfg := runConfig{seed: 1, seconds: 0, trace: trace, scale: 0.01, traceDir: t.TempDir()}
		if err := run(cfg, workloads, "", &out); err != nil {
			t.Fatalf("trace %v: %v", trace, err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		var lines int
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			lines++
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(defs) {
				t.Errorf("trace %v: result %s", trace, line)
			}
		}
		if lines != len(workloads) {
			t.Errorf("trace %v: %d result lines, want %d:\n%s", trace, lines, len(workloads), out.String())
		}
	}
}

// The command line states the run length but cannot change it.
func TestRunLengthIsFixed(t *testing.T) {
	var out, errs bytes.Buffer
	if code := runMain([]string{"-workload", "halo", "-seconds", "5"}, &out, &errs); code != 2 || out.Len() != 0 {
		t.Errorf("-seconds 5: exit %d, output %q; want exit 2 and no output", code, out.String())
	}
}

// The benchmark's Fig. 5 and Fig. 6 programs reproduce the simulator's
// own figure harness latencies on the -quick grids.
func TestProgramsMatchFigureHarness(t *testing.T) {
	kinds := []bench.NICKind{bench.Baseline, bench.ALPU128, bench.ALPU256}
	lens := []int{0, 50, 100, 200, 300, 400, 500}
	for _, k := range kinds {
		pts := bench.RunPreposted(bench.PrepostedConfig{
			NIC: bench.NICConfig(k), QueueLens: lens, Fracs: []float64{0, 0.5, 1.0},
		})
		for _, pt := range pts {
			if got := latency(t, prepostedWorld(bench.NICConfig(k), pt.QueueLen, pt.Traversed, nil), probes); got != pt.Latency {
				t.Errorf("fig5 %v q=%d p=%d: benchmark %v, harness %v", k, pt.QueueLen, pt.Traversed, got, pt.Latency)
			}
		}
		for _, pt := range bench.RunUnexpected(bench.UnexpectedConfig{NIC: bench.NICConfig(k), QueueLens: lens}) {
			if got := latency(t, unexpectedWorld(bench.NICConfig(k), pt.QueueLen), 1); got != pt.Latency {
				t.Errorf("fig6 %v u=%d: benchmark %v, harness %v", k, pt.QueueLen, got, pt.Latency)
			}
		}
	}
}

// latency runs one world and returns its digest word at index i.
func latency(t *testing.T, wd *world, i int) sim.Time {
	t.Helper()
	r := runWorld(job{build: func() *world { return wd }})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return sim.Time(r.words[i])
}

// BENCHMARK.json and the metric tables here must agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d in BENCHMARK.json, %d here", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, here %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != (kind == "end_to_end") ||
				(m.Bound != nil && *m.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, here %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
