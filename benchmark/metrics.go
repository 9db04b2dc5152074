package main

import (
	"fmt"
	"io"
	"time"
)

// metricDef names one reported metric. bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd metrics are measured with tracing off, over untraced passes:
// what someone reproducing a figure waits for and the memory it takes.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.10},
	{"world_ms_p50", "ms", "lower", 0.10},
	{"world_ms_p90", "ms", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"heap_live_mb_max", "MB", "lower", 0.15},
}

// perLayer metrics come from a traced run. Counts are per pass.
var perLayer = []metricDef{
	{name: "mpi.build_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.run_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "nic.entries_traversed", unit: "count", better: "lower"},
	{name: "nic.packets", unit: "count", better: "lower"},
	{name: "nic.alpu_hit_ratio", unit: "ratio", better: "higher"},
	{name: "memsys.nic_l1_accesses", unit: "count", better: "lower"},
	{name: "memsys.nic_l1_hit_ratio", unit: "ratio", better: "higher"},
	{name: "alpu.searches", unit: "count", better: "lower"},
	{name: "alpu.inserts", unit: "count", better: "lower"},
	{name: "alpu.shift_cycles", unit: "count", better: "lower"},
	{name: "match.fabric_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "match.overflow_promotions", unit: "count", better: "lower"},
	{name: "network.packets", unit: "count", better: "lower"},
	{name: "network.bytes", unit: "bytes", better: "lower"},
	{name: "telemetry.harvest_ms_p50", unit: "ms", better: "lower"},
	{name: "telemetry.export_ms_p50", unit: "ms", better: "lower"},
	{name: "telemetry.trace_events", unit: "count", better: "lower"},
	{name: "runtime.sched_latency_us_p50", unit: "us", better: "lower"},
	{name: "runtime.gc_cpu_s", unit: "s", better: "lower"},
	{name: "runtime.user_cpu_s", unit: "s", better: "lower"},
	{name: "runtime.idle_cpu_s", unit: "s", better: "lower"},
	{name: "cpu.sim_share", unit: "ratio", better: "lower"},
	{name: "cpu.sched_share", unit: "ratio", better: "lower"},
	{name: "cpu.gc_share", unit: "ratio", better: "lower"},
	{name: "cpu.memsys_share", unit: "ratio", better: "lower"},
	{name: "cpu.nic_share", unit: "ratio", better: "lower"},
	{name: "cpu.alpu_share", unit: "ratio", better: "lower"},
	{name: "cpu.match_share", unit: "ratio", better: "lower"},
	{name: "cpu.network_share", unit: "ratio", better: "lower"},
	{name: "cpu.mpi_share", unit: "ratio", better: "lower"},
	{name: "cpu.telemetry_share", unit: "ratio", better: "lower"},
	{name: "cpu.other_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "host.calibration_us", unit: "us", better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func secs(d time.Duration) float64 { return d.Seconds() }
func msec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selectPasses returns the passes with the given tracing state.
func (res *runResult) selectPasses(traced bool) []passResult {
	var out []passResult
	for _, p := range res.passes {
		if p.Traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// passMedian is the median over passes of f.
func passMedian(ps []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// worldSamples pools one per-world duration, in reference ms, over
// passes.
func worldSamples(ps []passResult, f func(stages) time.Duration) []float64 {
	var xs []float64
	for _, p := range ps {
		for _, w := range p.Worlds {
			xs = append(xs, msec(f(w))*p.speed())
		}
	}
	return xs
}

// wallS and setupS are a pass's host times in reference seconds.
func wallS(p passResult) float64  { return secs(p.Wall) * p.speed() }
func setupS(p passResult) float64 { return secs(p.Setup) * p.speed() }

func rawWallS(p passResult) float64      { return secs(p.Wall) }
func calibrationUs(p passResult) float64 { return float64(p.Calibration.Nanoseconds()) / 1e3 }

func (res *runResult) endToEndValues() map[string]float64 {
	ps := res.selectPasses(false)
	worlds := worldSamples(ps, stages.total)
	return map[string]float64{
		"wall_s":           passMedian(ps, wallS),
		"world_ms_p50":     percentile(worlds, 0.5),
		"world_ms_p90":     percentile(worlds, 0.9),
		"setup_s":          passMedian(ps, setupS),
		"alloc_mb":         passMedian(ps, func(p passResult) float64 { return float64(p.AllocBytes) / 1e6 }),
		"heap_live_mb_max": passMedian(ps, func(p passResult) float64 { return float64(p.HeapLiveMax) / 1e6 }),
	}
}

// perLayerValues reads stage timings and CPU shares from the traced
// passes, runtime/metrics deltas from the untraced ones, and counts from
// the first pass, whose world list every run of the seed repeats.
func (res *runResult) perLayerValues() map[string]float64 {
	traced := res.selectPasses(true)
	stage := func(s stage) func(stages) time.Duration {
		return func(w stages) time.Duration { return w[s] }
	}
	var runNs float64
	for _, p := range traced {
		for _, w := range p.Worlds {
			runNs += float64(w[stageRun].Nanoseconds()) * p.speed()
		}
	}
	c := res.passes[0].Counts
	rt := res.rt
	perPass := func(v float64) float64 {
		if rt.Passes == 0 {
			return 0
		}
		return v / float64(rt.Passes)
	}
	untracedWall := passMedian(res.selectPasses(false), wallS)
	tracedWall := passMedian(traced, wallS)
	v := map[string]float64{
		"mpi.build_ms_p50":             percentile(worldSamples(traced, stage(stageBuild)), 0.5),
		"sim.run_ms_p50":               percentile(worldSamples(traced, stage(stageRun)), 0.5),
		"sim.events":                   float64(c[cEvents]),
		"sim.ns_per_event":             runNs / float64(max(uint64(len(traced))*c[cEvents], 1)),
		"nic.entries_traversed":        float64(c[cEntriesTraversed]),
		"nic.packets":                  float64(c[cPackets]),
		"nic.alpu_hit_ratio":           ratio(c[cALPUHits], c[cALPUHits]+c[cALPUMisses]),
		"memsys.nic_l1_accesses":       float64(c[cNICL1Accesses]),
		"memsys.nic_l1_hit_ratio":      ratio(c[cNICL1Hits], c[cNICL1Accesses]),
		"alpu.searches":                float64(c[cALPUSearches]),
		"alpu.inserts":                 float64(c[cALPUInserts]),
		"alpu.shift_cycles":            float64(c[cALPUShiftCycles]),
		"match.fabric_cache_hit_ratio": ratio(c[cFabricCacheHits], c[cFabricCacheHits]+c[cFabricCacheMisses]),
		"match.overflow_promotions":    float64(c[cOverflowPromotions]),
		"network.packets":              float64(c[cNetPackets]),
		"network.bytes":                float64(c[cNetBytes]),
		"telemetry.harvest_ms_p50":     percentile(worldSamples(traced, stage(stageHarvest)), 0.5),
		"telemetry.export_ms_p50":      percentile(worldSamples(traced, stage(stageExport)), 0.5),
		"telemetry.trace_events":       float64(c[cTraceEvents]),
		"runtime.sched_latency_us_p50": rt.schedLatencyP50() * 1e6,
		"runtime.gc_cpu_s":             perPass(rt.GCCPU),
		"runtime.user_cpu_s":           perPass(rt.UserCPU),
		"runtime.idle_cpu_s":           perPass(rt.IdleCPU),
		"trace.overhead_frac":          tracedWall/untracedWall - 1,
		"host.calibration_us":          passMedian(res.passes, calibrationUs),
	}
	for _, b := range cpuBuckets {
		v["cpu."+b+"_share"] = res.cpu.share(b)
	}
	return v
}

// result assembles the final line: end-to-end metrics untraced,
// per-layer metrics traced.
func (res *runResult) result() result {
	out := result{Correct: res.failure == nil, Metrics: map[string]metricValue{}}
	for _, p := range res.passes {
		out.Attempted += len(p.Worlds)
		out.Failed += p.Failed
	}
	if res.digestMismatch() {
		out.Failed = out.Attempted
	}
	defs, vals := endToEnd, res.endToEndValues()
	if res.cfg.trace {
		defs, vals = perLayer, res.perLayerValues()
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// report prints every metric by name with its unit, and the sample
// counts behind the world percentiles.
func (res *runResult) report(w io.Writer) {
	untraced := res.selectPasses(false)
	fmt.Fprintf(w, "workload %s: seed %d, %d worlds per pass, %d untraced + %d traced passes\n",
		res.wl.name, res.cfg.seed, res.worlds, len(untraced), len(res.passes)-len(untraced))
	fmt.Fprintf(w, "  digest %016x%s\n", res.digest, res.digestNote())
	fmt.Fprintf(w, "  host: raw wall_s %.6g s, calibration slice %.4g us, GC wait %.4g ms (times below scaled to %v)\n",
		passMedian(untraced, rawWallS), passMedian(res.passes, calibrationUs),
		passMedian(untraced, func(p passResult) float64 { return msec(p.GCWait) }), refSliceTime)
	if res.failure != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", res.failure)
	}
	n := len(worldSamples(untraced, stages.total))
	lists := map[int]bool{}
	for _, p := range untraced {
		lists[p.List] = true
	}
	distinct := len(lists) * res.worlds
	vals := res.endToEndValues()
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "world_ms_p50":
			note = fmt.Sprintf("  (%d samples, %d distinct worlds)", n, distinct)
		case "world_ms_p90":
			note = fmt.Sprintf("  (%d samples, %d distinct worlds, %d beyond)", n, distinct, beyond(n, 0.9))
			if beyond(distinct, 0.9) < minBeyond {
				note += " too few distinct worlds beyond p90"
			}
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-5s%s\n", d.name, vals[d.name], d.unit, note)
	}
	if res.cfg.trace {
		lv := res.perLayerValues()
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, lv[d.name], d.unit)
		}
		res.cpu.writeTable(w)
	}
}
