// Command queuestudy reruns the style of application queue study that
// motivated the ALPU (the paper's §I-II, following refs [8] and [9]):
// for a set of application patterns and process counts, it reports how
// deep the MPI queues grow, where matches land in them, and what the
// ALPU does to traversal work and completion time.
//
//	queuestudy [-ranks 4,8,16] [-workload all|halo|master|storm|sweep|irregular] [-cells 128] [-shards N]
//	           [-jobs N] [-par N] [-faults drop=0.01,corrupt=0.01] [-seed N] [-breakdown] [-trace FILE] [-metrics FILE]
//
// With -faults every study runs over a faulty network with the NIC
// reliability protocol recovering; a second table reports what the
// recovery cost. The same -seed reproduces the identical run.
//
// -shards N runs the accelerated configurations on the sharded matching
// fabric (N ALPU instances per posted queue, see alpusim -help) and adds
// a per-shard occupancy/overflow table. Matching outcomes are identical
// to the single-ALPU runs; only the cost model moves.
//
// Telemetry: -breakdown adds a per-study table of mean per-message
// latency phases; -trace FILE writes a Chrome trace-event JSON of every
// study world (load at ui.perfetto.dev); -metrics FILE writes the merged
// metrics-registry snapshot as JSON; -report FILE writes a
// self-contained static HTML run report with per-study occupancy
// waterlines (inline SVG, no JavaScript). "-" means stdout. All outputs
// are byte-identical at any -jobs setting.
//
// -serve ADDR runs the observability HTTP server while the studies run
// (/metrics, /healthz, /progress, /critpath, /report, /timeseries); the
// run report and series are published on /report and /timeseries once
// the studies finish. -linger keeps it up afterwards; -cpuprofile and
// -memprofile profile the simulator itself. These are the shared
// observability flags of internal/obs (obs.CLI), with the same meaning
// as in alpusim and queueprobe. The run flags -jobs (default 0 =
// GOMAXPROCS), -par, -faults, -seed and -flightsize belong to the same
// block, shared with alpusim: it validates them once and builds the run
// plan (bench.Plan) every study world is built from.
//
// -par N splits every study world into N per-rank partitions run as a
// conservative parallel simulation (see alpusim -help); every output is
// byte-identical for any -par N >= 1, with 0 keeping the serial engine.
//
// A malformed -ranks, -cells, -workload, -par or -faults value, or a
// negative -shards, exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"alpusim/internal/alpu"
	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/obs"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
)

var (
	ranksFlag  = flag.String("ranks", "4,8,16", "comma-separated process counts")
	workload   = flag.String("workload", "all", "halo, master, storm, sweep, irregular, or all")
	cells      = flag.Int("cells", 128, "ALPU cells for the accelerated runs")
	shardsFlag = flag.Int("shards", 0, "matching-fabric shards for the accelerated runs (0/1 = single ALPU); adds a per-shard occupancy table")
	breakdown  = flag.Bool("breakdown", false, "report mean per-message latency phases per study")

	ob = obs.NewCLI("queuestudy", flag.CommandLine,
		obs.FlagTrace|obs.FlagMetrics|obs.FlagReport|obs.FlagServe|obs.FlagProfile|obs.FlagRun)
)

// faultyWatchdog bounds each study world when faults are injected; the
// studies drain in well under a simulated second even while recovering.
const faultyWatchdog = 500 * sim.Millisecond

type runner struct {
	name string
	run  func(cfg mpi.Config) bench.Report
}

func runners() []runner {
	return []runner{
		{"halo", func(cfg mpi.Config) bench.Report { return bench.Halo(cfg, 10, 1024, 5) }},
		{"master", func(cfg mpi.Config) bench.Report { return bench.MasterWorker(cfg, 4, 256, 3) }},
		{"storm", func(cfg mpi.Config) bench.Report { return bench.UnexpectedStorm(cfg, 30, 64) }},
		{"sweep", func(cfg mpi.Config) bench.Report { return bench.Sweep(cfg, 4, 512) }},
		{"irregular", func(cfg mpi.Config) bench.Report { return bench.Irregular(cfg, 4, 3, 128, 7) }},
	}
}

// checkFlags rejects values of this cmd's own flags that no study can
// run with (obs.CLI.Validate checks the run flags) and returns the ALPU
// cell count the worlds are built with (-cells 0 selects the NIC's
// default) and the parsed -ranks list.
func checkFlags(cells int, ranksSpec, workload string, shards int) (int, []int, error) {
	if shards < 0 {
		return 0, nil, fmt.Errorf("-shards %d: fabric width must not be negative", shards)
	}
	names := []string{"all"}
	for _, r := range runners() {
		names = append(names, r.name)
	}
	if !slices.Contains(names, workload) {
		return 0, nil, fmt.Errorf("-workload %q: want one of %s", workload, strings.Join(names, ", "))
	}
	if cells == 0 {
		cells = nic.DefaultCells
	}
	if err := (alpu.Geometry{Cells: cells, BlockSize: params.ALPUDefaultBlockSize}).Validate(); err != nil {
		return 0, nil, fmt.Errorf("-cells %d: %w", cells, err)
	}
	var ranks []int
	for _, part := range strings.Split(ranksSpec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			return 0, nil, fmt.Errorf("-ranks %q: want comma-separated process counts of at least 2", ranksSpec)
		}
		ranks = append(ranks, v)
	}
	return cells, ranks, nil
}

func main() {
	flag.Parse()
	ncells, ranks, err := checkFlags(*cells, *ranksFlag, *workload, *shardsFlag)
	ob.Check(err, 2)
	ob.Check(ob.Validate(), 2)
	ob.Check(ob.Start(), 1)
	ob.Progress.SetLabel("queuestudy")
	plan := ob.Plan
	fm := plan.Faults

	fmt.Printf("Application queue study (refs [8]/[9] methodology), ALPU cells=%d\n", ncells)
	if fm != nil {
		fmt.Printf("fault injection: %s, seed %d\n", ob.FaultSpec(), plan.Seed)
	}
	fmt.Println()
	tb := stats.NewTable("workload", "ranks",
		"peak posted", "peak unexp", "match depth p50/p99/max",
		"traversed base", "traversed alpu", "elapsed base", "elapsed alpu", "speedup")

	// Every (workload, ranks, NIC) simulation is an independent world:
	// enumerate the matrix, fan it across the sweep pool, and assemble
	// rows in enumeration order so output is identical at any -jobs.
	type study struct {
		name        string
		ranks       int
		base, accel bench.Report
	}
	var studies []study
	var runs []func() bench.Report
	// Per-run recorders (lifecycle, tracer, sampler), indexed like runs:
	// each world owns its recorders; outputs merge in enumeration order.
	wantReport := ob.WantReport()
	var phases []*telemetry.Causal
	var tracers []*telemetry.Tracer
	var samplers []*telemetry.Sampler
	var runLabels []string
	addRun := func(nc nic.Config, n int, r runner, label string) {
		var p *telemetry.Causal
		var tr *telemetry.Tracer
		var sa *telemetry.Sampler
		if *breakdown {
			p = telemetry.NewCausal()
		}
		if ob.Want(obs.FlagTrace) {
			tr = telemetry.NewTracer()
		}
		if wantReport {
			sa = telemetry.NewSampler(0, 0)
		}
		phases = append(phases, p)
		tracers = append(tracers, tr)
		samplers = append(samplers, sa)
		runLabels = append(runLabels, fmt.Sprintf("%s/r%d/%s/", r.name, n, label))
		cfg := plan.WorldConfig(n, nc)
		if fm != nil {
			cfg.Faults, cfg.WatchdogLimit = fm, faultyWatchdog
		}
		cfg.Causal, cfg.Tracer, cfg.Series = p, tr, sa
		runs = append(runs, func() bench.Report { return r.run(cfg) })
	}
	for _, r := range runners() {
		if *workload != "all" && *workload != r.name {
			continue
		}
		for _, n := range ranks {
			r, n := r, n
			studies = append(studies, study{name: r.name, ranks: n})
			addRun(nic.Config{}, n, r, "base")
			accel := nic.Config{UseALPU: true, Cells: ncells}
			if *shardsFlag > 1 {
				accel.MatchShards = *shardsFlag
			}
			addRun(accel, n, r, "alpu")
		}
	}
	reports := sweep.Map(plan.Jobs, len(runs), func(i int) bench.Report { return runs[i]() })
	for i := range studies {
		studies[i].base, studies[i].accel = reports[2*i], reports[2*i+1]
	}

	for _, s := range studies {
		depths := s.base.PostedDepths
		depths.Merge(&s.base.UnexpDepths)
		speedup := float64(s.base.Elapsed) / float64(s.accel.Elapsed)
		tb.AddRow(s.name, s.ranks,
			s.base.PeakPosted, s.base.PeakUnexp,
			fmt.Sprintf("%d/%d/%d", depths.Percentile(0.5), depths.Percentile(0.99), depths.Max()),
			s.base.EntriesTraversed, s.accel.EntriesTraversed,
			fmt.Sprintf("%.1fus", s.base.Elapsed.Microseconds()),
			fmt.Sprintf("%.1fus", s.accel.Elapsed.Microseconds()),
			fmt.Sprintf("%.2fx", speedup))
	}
	tb.Render(os.Stdout)
	fmt.Println()
	if *shardsFlag > 1 {
		// Per-shard fabric view of every accelerated run: how evenly the
		// dispatch hash spread each study's posted traffic, how much of it
		// sat in software overflow, and the hot-entry cache's hit rate.
		// Peaks are folded across the world's NICs by maximum, counters by
		// sum, matching Snapshot.Merge semantics.
		ft := stats.NewTable("workload", "ranks", "shard",
			"peak len", "promotions", "demotions", "cache hit%")
		for _, s := range studies {
			snap := s.accel.Telemetry
			hitCol := "·"
			if total := snap.Sum("fabric/cache_hits") + snap.Sum("fabric/cache_misses"); total > 0 {
				hitCol = fmt.Sprintf("%.1f", 100*float64(snap.Sum("fabric/cache_hits"))/float64(total))
			}
			for sh := 0; sh < *shardsFlag; sh++ {
				sp := fmt.Sprintf("fabric/shard%d", sh)
				peak := int64(0)
				for name, g := range snap.Gauges {
					if strings.HasSuffix(name, sp+"/peak_len") && g > peak {
						peak = g
					}
				}
				cacheCell := "·"
				if sh == 0 {
					cacheCell = hitCol
				}
				ft.AddRow(s.name, s.ranks, sh, peak,
					snap.Sum(sp+"/promotions"), snap.Sum(sp+"/demotions"), cacheCell)
			}
		}
		ft.Render(os.Stdout)
		fmt.Println()
	}
	if fm != nil {
		// The recovery table: what the injected faults cost each study
		// (base + ALPU runs summed). Completion at all is the correctness
		// check — every study drains only if every message matched.
		rt := stats.NewTable("workload", "ranks", "injected", "retransmits", "nacks", "rnr", "recoveries", "errors")
		for _, s := range studies {
			rt.AddRow(s.name, s.ranks,
				s.base.FaultsInjected+s.accel.FaultsInjected,
				s.base.Retransmits+s.accel.Retransmits,
				s.base.NacksSent+s.accel.NacksSent,
				s.base.RNRSent+s.accel.RNRSent,
				s.base.Recoveries+s.accel.Recoveries,
				s.base.ProtocolErrors+s.accel.ProtocolErrors)
		}
		rt.Render(os.Stdout)
		fmt.Println()
	}
	if *breakdown {
		// Mean per-message phases: every eager message a study world
		// completed, decomposed into the telemetry pipeline phases.
		bt := stats.NewTable("workload", "ranks", "nic", "msgs",
			"wire", "recovery", "rxfifo", "search", "deliver", "host", "mean total (ns)")
		for i, s := range studies {
			for j, label := range []string{"baseline", "alpu"} {
				tot := phases[2*i+j].Totals()
				bt.AddRow(s.name, s.ranks, label, tot.Messages,
					tot.MeanNs(telemetry.PhaseWire),
					tot.MeanNs(telemetry.PhaseRecovery),
					tot.MeanNs(telemetry.PhaseRxFIFO),
					tot.MeanNs(telemetry.PhaseSearch),
					tot.MeanNs(telemetry.PhaseDeliver),
					tot.MeanNs(telemetry.PhaseHost),
					tot.MeanTotalNs())
			}
		}
		bt.Render(os.Stdout)
		fmt.Println()
	}
	ob.Check(ob.Emit(obs.FlagTrace, func(w io.Writer) error {
		return telemetry.WriteTrace(w, tracers...)
	}), 1)
	var merged telemetry.Snapshot
	for _, rep := range reports {
		merged.Merge(rep.Telemetry)
	}
	ob.Check(ob.Emit(obs.FlagMetrics, merged.WriteJSON), 1)
	if wantReport {
		// Fold the per-run samplers under study-scoped prefixes
		// ("halo/r8/alpu/..."), as the waterline names in the report. The
		// title carries only workload parameters — nothing -jobs or -par
		// dependent — so the report bytes are parallelism-invariant.
		series := telemetry.MergeSeries(len(samplers), func(i int) (string, *telemetry.Sampler) {
			return runLabels[i], samplers[i]
		})
		title := fmt.Sprintf("queuestudy %s, ranks %s, cells %d", *workload, *ranksFlag, ncells)
		if fm != nil {
			title += fmt.Sprintf(" (faults %s, seed %d)", ob.FaultSpec(), plan.Seed)
		}
		var totals telemetry.Totals
		for _, p := range phases {
			totals.Merge(p.Totals())
		}
		ob.Check(ob.PublishReport(&obs.Report{Title: title, Series: series, Phases: totals, Snapshot: merged}), 1)
	}
	fmt.Println("Reading the table: queue depth and match depth grow with the process")
	fmt.Println("count for manager/worker and storm patterns (the paper's motivation);")
	fmt.Println("the ALPU collapses software traversals and pays off exactly there,")
	fmt.Println("while staying near-neutral for short-queue nearest-neighbour codes.")
	ob.Close("studies")
}
