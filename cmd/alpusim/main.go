// Command alpusim reruns the paper's simulation experiments and prints
// the series behind each figure and table.
//
// Experiments (-experiment):
//
//	tab3           print the Table III processor parameters in use
//	tab4, tab5     the FPGA prototype tables (see also cmd/fpgareport)
//	fig5-baseline  latency surface, baseline NIC (Fig. 5a/b)
//	fig5-alpu128   latency surface, NIC + 128-entry ALPU (Fig. 5c/d)
//	fig5-alpu256   latency surface, NIC + 256-entry ALPU (Fig. 5e/f)
//	fig6           unexpected-queue latency series, all 3 NICs (Fig. 6)
//	anchors        the §VI-B/§VI-C text anchors, measured vs published
//	phases         per-message latency phase breakdown: the Fig. 5 workload
//	               decomposed into inject/wire/recovery/rxfifo/search/
//	               deliver/host phases that sum to the end-to-end latency
//	critpath       causal critical-path analysis: the Fig. 5 workload as a
//	               causal DAG — per-resource blame for the critical path
//	               (sums to 100.0%), what-if speedups with one resource
//	               zeroed, and the slowest causal chains; -metrics FILE
//	               writes the machine-readable JSON report
//	chaos          the figure workloads over a faulty network: injected
//	               faults vs the NIC reliability protocol's recovery stats
//	devchaos       the device-chaos campaign: an N-rank soak over NICs
//	               whose ALPUs flip bits, drop results, stall or die and
//	               whose firmware crashes, every scenario digest-verified
//	               against a clean software-only run of the same plan
//	tenancy        the heavy-tenancy matching sweep: Zipf-skewed traffic
//	               over many communicators driven through the software
//	               list, a single ALPU, and the sharded matching fabric
//	               at 2/4/8 units — digest-verified rows with dispatch
//	               cache hit rate, per-shard occupancy, overflow churn
//	               and match-latency quantiles; -shards N instead dumps
//	               that one configuration's receive outcomes line by
//	               line (one golden pins it at every width)
//	scale          conservative-PDES scaling study: a large halo-exchange
//	               world run on the serial engine and again split across
//	               -par partitions, with wall-clock speedup
//	stall          forces a watchdog stall (endless ping-pong world) and
//	               writes the flight-recorder post-mortem (-flightdump)
//	all            the table and figure experiments plus phases (excludes
//	               critpath, chaos, devchaos, tenancy, scale, stall)
//	list           print the experiment table and exit
//
// Flags: -quick shrinks the sweeps (~10x faster), -format csv emits
// machine-readable series instead of tables, -jobs N fans the independent
// simulation worlds of each sweep across N workers (results are
// byte-identical at any setting; -jobs 1 is fully sequential, and the
// default 0 selects GOMAXPROCS).
//
// -par N runs every simulated world as a conservative parallel simulation
// over N per-rank partitions (mpi.Config.Partitions): per-partition event
// engines synchronized by the wire-latency lookahead. Output is
// byte-identical for every -par N >= 1 — including chaos runs, phase
// tables, traces and metrics — so the goldens of TestQuickAllGolden are
// replayed at -par 1, 2 and 8. -par 0 (default) keeps the classic serial
// engine; a negative -par exits 2.
//
// Fault injection: -faults installs a fault model for experiments that
// support one (chaos, devchaos, phases, critpath): either one probability
// for all wire classes ("0.02") or per-class pairs ("drop=0.01,reorder=0.05").
// Device-level classes ride the same grammar: "alpubitflip=0.01",
// "alpuresultdrop=0.02", "alpustuck=0.1", "alpudeath@50us",
// "fwcrash=0.005", "linkflap=0.05". -seed seeds the injection streams;
// the same seed reproduces the identical run byte for byte.
//
// Telemetry: for the phases experiment, -trace FILE writes a Chrome
// trace-event JSON (load at ui.perfetto.dev) and -metrics FILE writes the
// merged metrics-registry snapshot as JSON; "-" means stdout. Both are
// byte-identical across runs with the same flags at any -jobs setting.
//
// Run reports: for the phases experiment, -report FILE writes a
// self-contained static HTML run report (occupancy waterlines as inline
// SVG, phase breakdown, latency quantiles; no JavaScript, no external
// references), -timeseries FILE writes the decimated simulated-time
// series as JSON, and -simprof FILE writes a pprof-compatible sim-time
// profile — span self-times weighted by simulated nanoseconds — that
// `go tool pprof -top` (or -http for a flamegraph) reads directly. All
// three are byte-identical at any -par/-jobs setting.
//
// Live observability: -serve ADDR runs an HTTP server for the duration of
// the experiments exposing /metrics (Prometheus text format), /healthz,
// /progress (sweep completion, JSON or SSE), /critpath (the critpath
// experiment's causal reports, in enumeration order at any -jobs),
// /report (the HTML run report) and /timeseries (series JSON; the latter
// two answer 503 until the run finishes). Serving is strictly read-only —
// experiment output stays byte-identical with and without it. -linger
// keeps the server up after the run so scrapers can catch the final
// state; -log FILE ("-" = stderr) writes structured simulated-time
// diagnostics (watchdog expiry, protocol errors, flight dumps) of every
// world, and -flightsize N sizes every world's flight-recorder ring. The
// telemetry, report, serving, -log and profiling flags are the shared
// observability block of internal/obs (obs.CLI), with the same meaning in
// queuestudy and queueprobe. The run flags -jobs, -par, -faults, -seed
// and -flightsize belong to the same block, shared with queuestudy: it
// validates them once and builds the run plan (bench.Plan) that every
// experiment world is built from.
//
// A malformed -faults, -format, or a negative -size, -par or -shards
// exits 2, before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"alpusim/internal/alpu"
	"alpusim/internal/bench"
	"alpusim/internal/fpga"
	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/obs"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/telemetry"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run (see doc)")
	quick      = flag.Bool("quick", false, "reduced sweeps")
	format     = flag.String("format", "table", "output format: table or csv")
	msgSize    = flag.Int("size", 0, "message payload bytes for fig5/fig6")
	flightDump = flag.String("flightdump", "flight.json", "stall experiment: write the flight-recorder dump (Perfetto-loadable trace JSON) here on watchdog expiry")
	shards     = flag.Int("shards", 0, "tenancy experiment: dump the receive outcomes of this one fabric width instead of the full sweep (1 = single-ALPU baseline)")

	ob = obs.NewCLI("alpusim", flag.CommandLine,
		obs.FlagTrace|obs.FlagMetrics|obs.FlagReport|obs.FlagTimeseries|obs.FlagSimProf|obs.FlagLog|obs.FlagServe|obs.FlagProfile|obs.FlagRun)
)

// experimentList names every -experiment value with a one-line
// description — the table behind "-experiment list" and the
// unknown-experiment error.
var experimentList = []struct{ name, desc string }{
	{"tab3", "Table III processor parameters in use"},
	{"tab4", "FPGA prototype table, posted receives ALPU (Table IV)"},
	{"tab5", "FPGA prototype table, unexpected messages ALPU (Table V)"},
	{"fig5-baseline", "latency surface, baseline NIC (Fig. 5a/b)"},
	{"fig5-alpu128", "latency surface, NIC + 128-entry ALPU (Fig. 5c/d)"},
	{"fig5-alpu256", "latency surface, NIC + 256-entry ALPU (Fig. 5e/f)"},
	{"fig6", "unexpected-queue latency series, all 3 NICs (Fig. 6)"},
	{"gap", "inverse message rate vs match depth, incl. the Elan4-class point"},
	{"anchors", "the §VI-B/§VI-C text anchors, measured vs published"},
	{"phases", "per-message latency phase breakdown of the Fig. 5 workload"},
	{"critpath", "causal critical-path analysis: per-resource blame and what-ifs"},
	{"chaos", "figure workloads over a faulty network vs protocol recovery"},
	{"devchaos", "device-chaos soak: ALPUs that flip bits, stall or die"},
	{"tenancy", "heavy-tenancy matching sweep incl. the sharded fabric"},
	{"scale", "conservative-PDES scaling study: serial engine vs -par"},
	{"stall", "forced watchdog stall with a flight-recorder post-mortem"},
	{"all", "tables, figures, gap, anchors and phases (the deterministic core)"},
	{"list", "print this table and exit"},
}

// printExperiments renders the experiment table to w.
func printExperiments(w io.Writer) {
	tb := stats.NewTable("experiment", "description")
	for _, e := range experimentList {
		tb.AddRow(e.name, e.desc)
	}
	tb.Render(w)
}

// checkFlags rejects values of this cmd's own flags that no experiment
// can run with; obs.CLI.Validate checks the run flags.
func checkFlags(size, shards int, format string) error {
	switch {
	case size < 0:
		return fmt.Errorf("-size %d: message size must not be negative", size)
	case shards < 0:
		return fmt.Errorf("-shards %d: fabric width must not be negative", shards)
	case format != "table" && format != "csv":
		return fmt.Errorf("-format %q: want table or csv", format)
	}
	return nil
}

func main() {
	flag.Parse()
	ob.Check(checkFlags(*msgSize, *shards, *format), 2)
	ob.Check(ob.Validate(), 2)
	ob.Check(ob.Start(), 1)
	switch *experiment {
	case "tab3":
		tab3()
	case "tab4":
		fpgaTable(alpu.PostedReceives)
	case "tab5":
		fpgaTable(alpu.UnexpectedMessages)
	case "fig5-baseline":
		fig5(bench.Baseline)
	case "fig5-alpu128":
		fig5(bench.ALPU128)
	case "fig5-alpu256":
		fig5(bench.ALPU256)
	case "fig6":
		fig6()
	case "gap":
		gapExp()
	case "anchors":
		anchors()
	case "phases":
		phasesExp()
	case "critpath":
		critpathExp()
	case "chaos":
		chaosExp()
	case "devchaos":
		devchaosExp()
	case "tenancy":
		tenancyExp()
	case "scale":
		scaleExp()
	case "stall":
		stallExp()
	case "list":
		printExperiments(os.Stdout)
	case "all":
		tab3()
		fpgaTable(alpu.PostedReceives)
		fpgaTable(alpu.UnexpectedMessages)
		fig5(bench.Baseline)
		fig5(bench.ALPU128)
		fig5(bench.ALPU256)
		fig6()
		gapExp()
		anchors()
		phasesExp()
	default:
		fmt.Fprintf(os.Stderr, "alpusim: unknown experiment %q; valid experiments:\n\n", *experiment)
		printExperiments(os.Stderr)
		os.Exit(1)
	}
	ob.Close("experiments")
}

// stallExp forces a stall on purpose: two ranks ping-pong forever so the
// event queue never drains, a short watchdog converts the livelock into
// a *sim.WatchdogError, and the always-on flight recorder dumps the
// pre-stall event history as Perfetto-loadable JSON — the post-mortem
// workflow, demonstrated end to end.
func stallExp() {
	limit := 200 * sim.Microsecond
	cfg := ob.Plan.WorldConfig(2, bench.NICConfig(bench.Baseline))
	cfg.WatchdogLimit, cfg.FlightDumpPath = limit, *flightDump
	w := mpi.NewWorld(cfg)
	prog := func(r *mpi.Rank) {
		peer := 1 - r.Rank()
		for k := 0; ; k++ {
			if r.Rank() == 0 {
				r.Send(peer, k%64, 8)
				r.Recv(peer, k%64, 8)
			} else {
				r.Recv(peer, k%64, 8)
				r.Send(peer, k%64, 8)
			}
		}
	}
	for i := 0; i < 2; i++ {
		w.SpawnRank(i, prog)
	}
	defer func() {
		r := recover()
		if r == nil {
			fmt.Fprintln(os.Stderr, "alpusim: stall experiment drained without expiring the watchdog")
			os.Exit(1)
		}
		we, ok := r.(*sim.WatchdogError)
		if !ok {
			panic(r)
		}
		fmt.Printf("stall: watchdog expired at %v (as intended)\n", we.Limit)
		events, dropped := w.FlightStats()
		fmt.Printf("stall: flight recorder dumped %d events (%d older events dropped by the ring)\n",
			events, dropped)
	}()
	w.RunSim()
}

func queueLens() []int {
	if *quick {
		return []int{0, 50, 100, 200, 300, 400, 500}
	}
	out := []int{0}
	for q := 25; q <= 500; q += 25 {
		out = append(out, q)
	}
	return out
}

func fracs() []float64 {
	if *quick {
		return []float64{0, 0.5, 1.0}
	}
	return []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
}

func unexpLens() []int {
	if *quick {
		return []int{0, 50, 100, 200, 300, 400, 500}
	}
	out := []int{0, 10, 25}
	for u := 50; u <= 500; u += 25 {
		out = append(out, u)
	}
	return out
}

func tab3() {
	fmt.Println("Table III: processor simulation parameters (in use)")
	tb := stats.NewTable("Parameter", "CPU", "NIC Processor")
	host, nicCPU := params.HostCPU(), params.NICCPU()
	tb.AddRow("Clock Speed", fmt.Sprintf("%.0f MHz", host.Clock.Freq()), fmt.Sprintf("%.0f MHz", nicCPU.Clock.Freq()))
	tb.AddRow("L1 Cache", fmt.Sprintf("%dK %d-way", host.L1Size>>10, host.L1Assoc), fmt.Sprintf("%dK %d-way", nicCPU.L1Size>>10, nicCPU.L1Assoc))
	tb.AddRow("L2 Cache", fmt.Sprintf("%dK", host.L2Size>>10), "none")
	tb.AddRow("Lat. To Main Memory", fmt.Sprintf("%d cycles", host.MemLatency), fmt.Sprintf("%d cycles", nicCPU.MemLatency))
	tb.AddRow("Network Wire Lat.", params.WireLatency.String(), "")
	tb.AddRow("NIC local bus", "", params.NICBusDelay.String())
	tb.Render(os.Stdout)
	fmt.Println()
}

func fpgaTable(v alpu.Variant) {
	name := "Table IV (posted receives ALPU)"
	if v == alpu.UnexpectedMessages {
		name = "Table V (unexpected messages ALPU)"
	}
	fmt.Println(name)
	tb := stats.NewTable("Cells", "Block", "LUTs", "FFs", "Slices", "MHz", "Latency")
	for _, pub := range fpga.PublishedFor(v) {
		e := fpga.PrototypeParams(v, pub.Cells, pub.BlockSize).Estimate()
		tb.AddRow(pub.Cells, pub.BlockSize, e.LUTs, e.FFs, e.Slices, e.FreqMHz, e.LatencyCycles)
	}
	tb.Render(os.Stdout)
	fmt.Println("(run cmd/fpgareport for the side-by-side comparison with the published values)")
	fmt.Println()
}

func fig5(kind bench.NICKind) {
	ob.Progress.SetLabel(fmt.Sprintf("fig5-%s", kind))
	fmt.Printf("Fig. 5 surface: %s NIC, %d-byte messages (one-way latency, ns)\n", kind, *msgSize)
	pts := bench.RunPreposted(bench.PrepostedConfig{
		NIC:       bench.NICConfig(kind),
		QueueLens: queueLens(),
		Fracs:     fracs(),
		MsgSize:   *msgSize,
		Plan:      ob.Plan,
	})
	if *format == "csv" {
		rows := make([][]any, 0, len(pts))
		for _, p := range pts {
			rows = append(rows, []any{p.QueueLen, p.Traversed, p.MsgSize, p.Latency.Nanoseconds()})
		}
		stats.CSV(os.Stdout, []string{"queue_len", "traversed", "msg_size", "latency_ns"}, rows)
		fmt.Println()
		return
	}
	// Render as queue-length x fraction grid (the 3D surface flattened).
	byQ := map[int]map[float64]bench.PrepostedPoint{}
	for _, p := range pts {
		if byQ[p.QueueLen] == nil {
			byQ[p.QueueLen] = map[float64]bench.PrepostedPoint{}
		}
		byQ[p.QueueLen][p.Frac] = p
	}
	header := []any{"Q \\ frac"}
	for _, f := range fracs() {
		header = append(header, fmt.Sprintf("%.0f%%", f*100))
	}
	hs := make([]string, len(header))
	for i, h := range header {
		hs[i] = fmt.Sprint(h)
	}
	tb := stats.NewTable(hs...)
	for _, q := range queueLens() {
		row := []any{q}
		for _, f := range fracs() {
			if p, ok := byQ[q][f]; ok {
				row = append(row, fmt.Sprintf("%.0f", p.Latency.Nanoseconds()))
			} else {
				row = append(row, "·") // aliased with a smaller fraction
			}
		}
		tb.AddRow(row...)
	}
	tb.Render(os.Stdout)
	fmt.Println()
}

// unexpectedByQ indexes a Fig. 6 series by queue length, so row assembly
// across separately-run configs keys on the measured point rather than its
// slice position — a filtered or reordered sweep cannot silently misalign
// the table.
func unexpectedByQ(pts []bench.UnexpectedPoint) map[int]bench.UnexpectedPoint {
	m := make(map[int]bench.UnexpectedPoint, len(pts))
	for _, p := range pts {
		m[p.QueueLen] = p
	}
	return m
}

func fig6() {
	ob.Progress.SetLabel("fig6")
	fmt.Printf("Fig. 6: unexpected queue latency, %d-byte messages (ns)\n", *msgSize)
	kinds := []bench.NICKind{bench.Baseline, bench.ALPU128, bench.ALPU256}
	series := map[bench.NICKind]map[int]bench.UnexpectedPoint{}
	for _, k := range kinds {
		series[k] = unexpectedByQ(bench.RunUnexpected(bench.UnexpectedConfig{
			NIC:       bench.NICConfig(k),
			QueueLens: unexpLens(),
			MsgSize:   *msgSize,
			Plan:      ob.Plan,
		}))
	}
	if *format == "csv" {
		rows := make([][]any, 0)
		for _, u := range unexpLens() {
			b, okB := series[bench.Baseline][u]
			a1, okA1 := series[bench.ALPU128][u]
			a2, okA2 := series[bench.ALPU256][u]
			if !okB || !okA1 || !okA2 {
				continue // length missing from a series: drop, never misalign
			}
			rows = append(rows, []any{u,
				b.Latency.Nanoseconds(),
				a1.Latency.Nanoseconds(),
				a2.Latency.Nanoseconds()})
		}
		stats.CSV(os.Stdout, []string{"queue_len", "baseline_ns", "alpu128_ns", "alpu256_ns"}, rows)
		fmt.Println()
		return
	}
	tb := stats.NewTable("Unexpected Q", "baseline", "alpu-128", "alpu-256")
	for _, u := range unexpLens() {
		row := []any{u}
		for _, k := range kinds {
			if p, ok := series[k][u]; ok {
				row = append(row, fmt.Sprintf("%.0f", p.Latency.Nanoseconds()))
			} else {
				row = append(row, "·")
			}
		}
		tb.AddRow(row...)
	}
	tb.Render(os.Stdout)
	fmt.Println()
}

// gapExp reports the message-rate study behind the paper's §I gap
// motivation, including the §VI-B Quadrics Elan4 comparison point.
func gapExp() {
	ob.Progress.SetLabel("gap")
	fmt.Println("Gap (inverse message rate) vs. match depth, plus the Elan4-class comparison")
	depths := []int{0, 25, 50, 100, 150, 200}
	if *quick {
		depths = []int{0, 50, 150}
	}
	configs := []struct {
		name string
		nic  nic.Config
	}{
		{"baseline", bench.NICConfig(bench.Baseline)},
		{"alpu-128", bench.NICConfig(bench.ALPU128)},
		{"alpu-256", bench.NICConfig(bench.ALPU256)},
		{"elan4-class", bench.ElanNICConfig()},
	}
	// As in fig6: key each series by depth so separately-run configs can
	// never be joined by slice position.
	series := map[string]map[int]bench.GapPoint{}
	for _, c := range configs {
		byDepth := make(map[int]bench.GapPoint, len(depths))
		for _, p := range bench.RunGap(bench.GapConfig{NIC: c.nic, Depths: depths, Plan: ob.Plan}) {
			byDepth[p.Depth] = p
		}
		series[c.name] = byDepth
	}

	tb := stats.NewTable("depth", "baseline ns/msg", "alpu-128", "alpu-256", "elan4-class")
	for _, d := range depths {
		row := []any{d}
		for _, c := range configs {
			if p, ok := series[c.name][d]; ok {
				row = append(row, fmt.Sprintf("%.0f", p.NsPerMsg))
			} else {
				row = append(row, "·")
			}
		}
		tb.AddRow(row...)
	}
	tb.Render(os.Stdout)
	fmt.Println()
}

// scaleExp measures what the partitioned engines buy: one large
// halo-exchange world run to completion on the serial engine and again
// split across -par partitions (default GOMAXPROCS). The simulated
// behaviour is identical; only the wall clock moves, and the speedup
// tracks the number of physical cores — on a single-core box the
// partitioned run can only show the synchronization overhead.
func scaleExp() {
	ob.Progress.SetLabel("scale")
	ranks, iters := 64, 48
	if *quick {
		iters = 8
	}
	parts := ob.Plan.World.Partitions
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	run := func(partitions int) (bench.Report, float64) {
		cfg := ob.Plan.WorldConfig(ranks, bench.NICConfig(bench.ALPU128))
		cfg.Partitions = partitions
		t0 := time.Now()
		rep := bench.Halo(cfg, iters, 1024, 8)
		return rep, time.Since(t0).Seconds()
	}
	serialRep, serialSec := run(0)
	parRep, parSec := run(parts)
	fmt.Printf("Scaling study: halo exchange, %d ranks x %d iters, alpu-128 NIC\n", ranks, iters)
	tb := stats.NewTable("engine", "wall-clock s", "simulated time")
	tb.AddRow("serial", fmt.Sprintf("%.3f", serialSec), serialRep.Elapsed.String())
	tb.AddRow(fmt.Sprintf("par-%d", parts), fmt.Sprintf("%.3f", parSec), parRep.Elapsed.String())
	tb.Render(os.Stdout)
	if parSec > 0 {
		fmt.Printf("wall-clock speedup %.2fx at %d partitions on %d CPU core(s)\n",
			serialSec/parSec, parts, runtime.NumCPU())
	}
	fmt.Println()
}

// cellGrid is the phases and critpath grid. Its queue lengths are fewer
// than the figure sweeps': the breakdown is about where the cycles go at
// representative depths, not the full surface.
func cellGrid() bench.CellGrid {
	lens := []int{0, 32, 128, 512}
	if *quick {
		lens = lens[:3]
	}
	return bench.CellGrid{QueueLens: lens, MsgSize: *msgSize, Plan: ob.Plan}
}

// phasesExp decomposes the Fig. 5 end-to-end latency into pipeline
// phases per NIC kind and queue length. The phase columns telescope —
// they sum to the "total" column, which equals the independently
// measured "e2e" latency. With -faults, retransmit recovery time lands
// in the recovery column; -trace and -metrics export the runs'
// telemetry.
func phasesExp() {
	ob.Progress.SetLabel("phases")
	// The run report and the /report, /timeseries endpoints need the
	// time-series sampler; the sim-time profile rides on the tracer.
	wantReport := ob.WantReport()
	pts := bench.RunPhases(bench.PhasesConfig{
		CellGrid: cellGrid(),
		Trace:    ob.Want(obs.FlagTrace | obs.FlagSimProf),
		Series:   wantReport,
	})
	if *format == "csv" {
		header := []string{"nic", "queue_len"}
		for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
			header = append(header, p.String()+"_ns")
		}
		header = append(header, "total_ns", "e2e_ns")
		rows := make([][]any, 0, len(pts))
		for _, p := range pts {
			row := []any{p.Kind.String(), p.QueueLen}
			for ph := telemetry.Phase(0); ph < telemetry.NumPhases; ph++ {
				row = append(row, p.Breakdown.Durs[ph].Nanoseconds())
			}
			row = append(row, p.Breakdown.Total.Nanoseconds(), p.Latency.Nanoseconds())
			rows = append(rows, row)
		}
		stats.CSV(os.Stdout, header, rows)
		fmt.Println()
	} else {
		fmt.Printf("Latency phase breakdown: final-iteration phases (ns), %d-byte messages\n", *msgSize)
		bench.RenderPhases(os.Stdout, pts)
		fmt.Println()
	}
	ob.Check(ob.Emit(obs.FlagTrace, func(w io.Writer) error {
		return telemetry.WriteTrace(w, bench.Tracers(pts)...)
	}), 1)
	ob.Check(ob.Emit(obs.FlagMetrics, func(w io.Writer) error {
		return bench.MergedMetrics(pts).WriteJSON(w)
	}), 1)
	ob.Check(ob.Emit(obs.FlagSimProf, func(w io.Writer) error {
		return telemetry.WriteSimProfile(w, bench.Tracers(pts)...)
	}), 1)
	if wantReport {
		// The title describes the workload only: anything -par/-jobs
		// dependent would break the byte-identity CI asserts on the report.
		title := "alpusim phases experiment"
		if ob.Plan.Faults != nil {
			title += fmt.Sprintf(" (faults %s, seed %d)", ob.FaultSpec(), ob.Plan.Seed)
		}
		var totals telemetry.Totals
		for _, p := range pts {
			totals.Merge(p.Totals)
		}
		ob.Check(ob.PublishReport(&obs.Report{
			Title:    title,
			Series:   bench.MergedSeries(pts),
			Phases:   totals,
			Snapshot: bench.MergedMetrics(pts),
		}), 1)
	}
}

// critpathExp runs the causal critical-path analysis over the Fig. 5
// workload: each (NIC kind, queue length) cell becomes a causal DAG, and
// the report shows where the end-to-end critical path actually goes
// (blame shares sum to 100.0%), what zeroing one resource would buy
// (the Fig. 5 argument, computed instead of asserted), and the slowest
// message chains. -metrics FILE writes the machine-readable JSON report;
// output is byte-identical at any -jobs / -par setting.
func critpathExp() {
	ob.Progress.SetLabel("critpath")
	pts := bench.RunCritPath(bench.CritPathConfig{CellGrid: cellGrid()})
	if ob.Server != nil {
		for _, pt := range pts {
			ob.Server.AddCritPath(pt.Label(), pt.Report)
		}
	}
	fmt.Printf("Causal critical-path analysis: %d-byte messages, final-iteration chains\n", *msgSize)
	bench.RenderCritPath(os.Stdout, pts)
	fmt.Println()
	ob.Check(ob.Emit(obs.FlagMetrics, func(w io.Writer) error {
		return bench.WriteCritPathJSON(w, pts)
	}), 1)
}

// chaosExp re-runs the figure workloads over a faulty network and reports
// the reliability protocol's recovery statistics. With -faults the given
// mix is the whole matrix; otherwise every default mix runs. Output is a
// pure function of the flags (same -seed => identical bytes).
func chaosExp() {
	ob.Progress.SetLabel("chaos")
	for _, kind := range []bench.NICKind{bench.Baseline, bench.ALPU128} {
		fmt.Printf("Chaos: figure workloads under injected faults — %s NIC, seed %d\n", kind, ob.Plan.Seed)
		results := bench.RunChaos(bench.ChaosConfig{NIC: bench.NICConfig(kind), MsgSize: *msgSize, Plan: ob.Plan})
		bench.RenderChaos(os.Stdout, results)
		fmt.Println()
	}
}

// devchaosExp runs the device-chaos campaign: an N-rank soak over ALPU
// NICs whose devices flip bits, drop results, stall, die, or whose
// firmware crashes, with every scenario's matching digest verified
// against a clean software-only run of the same plan. With -faults the
// given mix is the whole matrix. Output is a pure function of the flags
// (same -seed => identical bytes at any -par).
func devchaosExp() {
	ob.Progress.SetLabel("devchaos")
	fmt.Printf("Device chaos: soak under injected device faults vs clean software reference — seed %d\n", ob.Plan.Seed)
	bench.RenderDevChaos(os.Stdout, bench.RunDevChaos(bench.DevChaosConfig{NIC: bench.NICConfig(bench.ALPU128), Plan: ob.Plan}))
	fmt.Println()
}

// tenancyCfg shapes the heavy-tenancy sweep from the shared flags:
// -quick shrinks the plan, -seed steers the Zipf schedule, and -par
// exercises the determinism claim across partitioned engines.
func tenancyCfg() bench.TenancyBenchConfig {
	cfg := bench.TenancyBenchConfig{Plan: ob.Plan}
	if *quick {
		cfg.Comms = 6
		cfg.Msgs = 512
	}
	return cfg
}

// tenancyExp runs the heavy-tenancy matching sweep behind the sharded
// fabric: software list vs single ALPU vs 2/4/8-shard fabric over the
// identical Zipf plan, every row digest-verified. With -shards N it
// instead dumps that one configuration's receive outcomes — identical
// bytes at every shard count and -par setting, pinned by one golden.
func tenancyExp() {
	ob.Progress.SetLabel("tenancy")
	cfg := tenancyCfg()
	if *shards > 0 {
		bench.WriteTenancyOutcomes(os.Stdout, cfg, *shards)
		return
	}
	// The report wants the occupancy waterlines (per-config queue depths,
	// per-shard fabric balance) the sweep table cannot show.
	cfg.Series = ob.WantReport()
	fmt.Printf("Heavy tenancy: Zipf-skewed multi-communicator matching, seed %d\n", ob.Plan.Seed)
	rows := bench.RunTenancy(cfg)
	bench.RenderTenancy(os.Stdout, rows)
	fmt.Println()
	if cfg.Series {
		ob.Check(ob.PublishReport(&obs.Report{
			Title:  fmt.Sprintf("alpusim tenancy sweep (seed %d)", ob.Plan.Seed),
			Series: bench.MergedTenancySeries(rows),
		}), 1)
	}
}

func anchors() {
	ob.Progress.SetLabel("anchors")
	fmt.Println("Measured vs published anchors (§VI-B, §VI-C)")
	qls := []int{0, 5, 25, 50, 100, 150, 200, 350, 400, 450, 500}
	base := bench.RunPreposted(bench.PrepostedConfig{
		NIC: bench.NICConfig(bench.Baseline), QueueLens: qls, Fracs: []float64{0.8, 1.0}, Plan: ob.Plan,
	})
	al := bench.RunPreposted(bench.PrepostedConfig{
		NIC: bench.NICConfig(bench.ALPU256), QueueLens: qls, Fracs: []float64{1.0}, Plan: ob.Plan,
	})
	a5 := bench.ExtractFig5(base, al, 256)

	uls := []int{0, 25, 50, 60, 70, 80, 90, 100, 150}
	b6 := bench.RunUnexpected(bench.UnexpectedConfig{NIC: bench.NICConfig(bench.Baseline), QueueLens: uls, Plan: ob.Plan})
	a6x := bench.RunUnexpected(bench.UnexpectedConfig{NIC: bench.NICConfig(bench.ALPU256), QueueLens: uls, Plan: ob.Plan})
	a6 := bench.ExtractFig6(b6, a6x)

	tb := stats.NewTable("Anchor", "Paper", "Measured")
	tb.AddRow("per-entry traversal, in cache", "~15 ns", fmt.Sprintf("%.1f ns", a5.InCacheNsPerEntry))
	tb.AddRow("per-entry traversal, out of cache", "~64 ns", fmt.Sprintf("%.1f ns", a5.OutOfCacheNsPerEntry))
	tb.AddRow("full 400-entry traversal", "~13 us", fmt.Sprintf("%.1f us", a5.Full400TraversalUs))
	tb.AddRow("80% of 500-entry traversal", "~24 us", fmt.Sprintf("%.1f us", a5.Traverse80Of500Us))
	tb.AddRow("ALPU zero-queue penalty", "~80 ns", fmt.Sprintf("%.0f ns", a5.PenaltyNs))
	tb.AddRow("ALPU break-even queue length", "~5", fmt.Sprintf("%.1f", a5.BreakEvenEntries))
	tb.AddRow("ALPU-256 flat until", "~256", fmt.Sprintf("%d", a5.FlatUntil))
	tb.AddRow("unexpected: ALPU short-queue loss", "tens of ns", fmt.Sprintf("%.0f ns", a6.ShortQueueLossNs))
	tb.AddRow("unexpected: crossover", "~70", fmt.Sprintf("%d", a6.CrossoverEntries))
	tb.Render(os.Stdout)
	fmt.Println()
}
