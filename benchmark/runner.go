package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"

	"alpusim/internal/mpi"
	"alpusim/internal/sim"
)

// stage is one host-time slice of a world's life.
type stage int

const (
	stageBuild   stage = iota // rank programs, mpi.NewWorld, SpawnRank
	stageRun                  // RunSim
	stageHarvest              // TelemetrySnapshot and the stats getters
	stageExport               // metrics JSON and, where on, recorder exports
	numStages
)

var stageNames = [numStages]string{"build", "run", "harvest", "export"}

// stages holds one world's host time per stage.
type stages [numStages]time.Duration

func (s stages) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// worldResult is one world's host timings, simulated work and outcome.
type worldResult struct {
	start  time.Time
	stages stages
	counts layerCounts
	words  []uint64 // simulated results folded into the digest
	err    error
}

// runWorld builds, simulates, harvests and exports one world, then checks
// its outcomes outside the timed stages. A panic anywhere, a rank's
// included, is recovered and becomes the world's error.
func runWorld(j job) (res worldResult) {
	defer func() {
		if v := recover(); v != nil {
			res.err = panicError(v)
		}
	}()
	var at [numStages + 1]time.Time
	at[0] = time.Now()
	wd := j.build()
	w := mpi.NewWorld(wd.cfg)
	for i, p := range wd.progs {
		w.SpawnRank(i, p)
	}
	at[1] = time.Now()
	w.RunSim()
	at[2] = time.Now()
	snap := w.TelemetrySnapshot()
	res.counts = harvestCounts(w, snap)
	at[3] = time.Now()
	err := snap.WriteJSON(io.Discard)
	if err == nil && wd.export != nil {
		var n int
		n, err = wd.export()
		res.counts[cTraceEvents] = uint64(n)
	}
	at[4] = time.Now()
	res.start = at[0]
	for s := range res.stages {
		res.stages[s] = at[s+1].Sub(at[s])
	}
	if err != nil {
		res.err = fmt.Errorf("export: %w", err)
		return res
	}
	res.words, res.err = wd.check()
	return res
}

func panicError(v any) error {
	if pp, ok := v.(*sim.ProcessPanic); ok {
		return fmt.Errorf("process %s panicked: %v", pp.Proc, pp.Value)
	}
	return fmt.Errorf("panic: %v", v)
}

// passResult is one run of a workload's world list, as a pass process
// reports it.
type passResult struct {
	List   int      `json:"list"` // which of the run's world lists
	Traced bool     `json:"traced"`
	Worlds []stages `json:"worlds_ns"`
	// Wall is input generation, every world's stages and the collections
	// the calibration waited for (GCWait).
	Wall        time.Duration `json:"wall_ns"`
	Setup       time.Duration `json:"setup_ns"` // input generation plus every world's build
	GCWait      time.Duration `json:"gc_wait_ns"`
	AllocBytes  uint64        `json:"alloc_bytes"`
	HeapLiveMax uint64        `json:"heap_live_max_bytes"`
	Digest      uint64        `json:"digest"`
	Failed      int           `json:"failed"`
	FirstErr    string        `json:"first_error,omitempty"`
	Counts      layerCounts   `json:"counts"` // summed over the worlds that succeeded
	Runtime     runtimeTotals `json:"runtime"`
	Spans       []hostSpan    `json:"spans,omitempty"`
	// Calibration is the calibration kernel's median slice time, timed
	// between the pass's worlds (calib.go).
	Calibration time.Duration `json:"calibration_ns"`
}

// speed scales the pass's host times to the reference host's speed.
func (p passResult) speed() float64 {
	if p.Calibration <= 0 {
		return 1
	}
	return float64(refSliceTime) / float64(p.Calibration)
}

// runPass generates the world list of n worlds from seed and runs it.
// Spans are recorded when sp is non-nil.
func runPass(wl workload, seed int64, n int, sp *spanRecorder) passResult {
	p := passResult{Traced: sp != nil}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	jobs := wl.plan(rand.New(rand.NewSource(seed)), n)
	gen := time.Since(t0)
	p.Wall, p.Setup = gen, gen
	d := newDigest()
	var cal calibrator
	for i, j := range jobs {
		p.GCWait += cal.between(i, len(jobs))
		r := runWorld(j)
		metrics.Read(live)
		p.HeapLiveMax = max(p.HeapLiveMax, live[0].Value.Uint64())
		p.Worlds = append(p.Worlds, r.stages)
		p.Wall += r.stages.total()
		p.Setup += r.stages[stageBuild]
		d.add(uint64(i), uint64(len(r.words)))
		d.add(r.words...)
		if r.err != nil {
			p.Failed++
			if p.FirstErr == "" {
				p.FirstErr = fmt.Sprintf("world %d (%s): %v", i, j.label, r.err)
			}
		} else {
			p.Counts.add(r.counts)
		}
		sp.world(i, j.label, r)
	}
	p.Calibration = cal.median()
	p.Wall += p.GCWait
	runtime.ReadMemStats(&ms1)
	p.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.Digest = d.sum()
	if sp != nil {
		sp.pass(wl.name, t0, time.Now())
		p.Spans = sp.spans
	}
	return p
}

// worldsAt scales a pass length, keeping at least one world.
func worldsAt(n int, scale float64) int {
	return max(int(float64(n)*scale+0.5), 1)
}

// listSeed derives the seed of world list k of a run from the run's
// seed, so that the passes of a run pool distinct worlds while a seed
// still repeats every list. The warm-up draws list -1.
func listSeed(seed int64, list int) int64 {
	d := newDigest()
	d.add(uint64(seed), uint64(list))
	return int64(d.sum())
}

// passMain runs one measured pass in its own process and prints its
// passResult as JSON:
//
//	benchmark pass -workload NAME -seed N -list K [-scale F] [-profile FILE]
//
// Every simulated world leaves its parked firmware and device goroutines
// behind, and with them the world's memory, so a process that ran pass
// after pass would grow without bound. One process per pass keeps each
// pass's memory bounded and its heap metrics comparable.
func passMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the run")
	list := fs.Int("list", 0, "which of the run's world lists to draw")
	scale := fs.Float64("scale", 1, "world-list length multiplier")
	profile := fs.String("profile", "", "trace the pass: record spans and write a CPU profile here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *list < 0 {
		fmt.Fprintf(stderr, "pass: unknown workload %q or negative list %d\n", *name, *list)
		return 2
	}
	n := worldsAt(wl.worlds, *scale)
	// Warm-up on a separate seed stream, excluded from every metric.
	runPass(wl, listSeed(*seed, -1), (n+15)/16, nil)

	var sp *spanRecorder
	var prof *os.File
	if *profile != "" {
		sp = &spanRecorder{}
		var err error
		if prof, err = os.Create(*profile); err != nil {
			fmt.Fprintln(stderr, "pass:", err)
			return 1
		}
	}
	rs := newRuntimeSampler()
	runtime.GC()
	before := rs.read()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			fmt.Fprintln(stderr, "pass: cpu profile:", err)
			return 1
		}
	}
	p := runPass(wl, listSeed(*seed, *list), n, sp)
	p.List = *list
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintln(stderr, "pass: cpu profile:", err)
			return 1
		}
	}
	// The world goroutines left behind make the live heap grow through
	// the pass, so the live heap after a final collection is its peak.
	runtime.GC()
	after := rs.read()
	p.Runtime = diffReadings(before, after)
	p.HeapLiveMax = max(p.HeapLiveMax, after.heapLive)
	if err := json.NewEncoder(stdout).Encode(p); err != nil {
		fmt.Fprintln(stderr, "pass:", err)
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64 // run passes until this much host time passed
	trace    bool    // alternate untraced and traced passes
	scale    float64 // world-list length multiplier
	traceDir string
}

// runResult is everything one workload run measured.
type runResult struct {
	wl      workload
	cfg     runConfig
	worlds  int // per pass
	passes  []passResult
	rt      runtimeTotals // over untraced passes
	cpu     cpuShares     // over traced passes
	digest  uint64        // of world list 0
	failure error         // first failed world, nondeterminism, or digest mismatch

	checked  bool   // digests.json covers this seed and scale
	expected string // its digest for this workload
}

// passTimeout bounds one pass process, so a run always ends.
const passTimeout = 150 * time.Second

// runWorkload runs pass processes until cfg.seconds of host time have
// passed, at least one (in trace mode two: one untraced, one traced).
// Untraced, every pass draws its own world list. In trace mode passes
// alternate untraced/traced, each pair runs the same list, so the two
// must agree on its digest and the tracing overhead compares like with
// like, and each traced pass records spans and a CPU profile into
// cfg.traceDir.
func runWorkload(wl workload, cfg runConfig) (*runResult, error) {
	res := &runResult{wl: wl, cfg: cfg, worlds: worldsAt(wl.worlds, cfg.scale)}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.traceDir, wl.name)
	if cfg.trace {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	var profiles []string
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < cfg.seconds; i++ {
		list := i
		if cfg.trace {
			list = i / 2
		}
		args := []string{"pass", "-workload", wl.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-list", strconv.Itoa(list), "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64)}
		if cfg.trace && i%2 == 1 {
			profiles = append(profiles, filepath.Join(dir, fmt.Sprintf("cpu-%d.pb.gz", len(profiles))))
			args = append(args, "-profile", profiles[len(profiles)-1])
		}
		p, err := runPassProcess(exe, args)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if !p.Traced {
			res.rt.add(p.Runtime.scaled(p.speed()))
		}
		res.passes = append(res.passes, p)
	}

	res.digest = res.passes[0].Digest
	digests := map[int]uint64{}
	for _, p := range res.passes {
		if p.FirstErr != "" {
			res.failure = errors.New(p.FirstErr)
			break
		}
		if d, ok := digests[p.List]; ok && d != p.Digest {
			res.failure = fmt.Errorf("two passes of world list %d disagree: digest %016x vs %016x", p.List, d, p.Digest)
			break
		}
		digests[p.List] = p.Digest
	}
	if cfg.trace {
		if err := res.writeTrace(dir, profiles); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runPassProcess(exe string, args []string) (passResult, error) {
	var p passResult
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return p, err
	}
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return p, fmt.Errorf("pass output: %w", err)
	}
	return p, nil
}

// writeTrace decodes the traced passes' CPU profiles into per-layer
// shares and writes the spans and the share table beside them.
func (res *runResult) writeTrace(dir string, profiles []string) error {
	for _, path := range profiles {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		prof, err := parseProfile(raw)
		if err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
		res.cpu.add(prof)
	}
	var sp spanRecorder
	for _, p := range res.passes {
		sp.spans = append(sp.spans, p.Spans...)
	}
	var spans bytes.Buffer
	if err := sp.writeChrome(&spans, res.wl.name); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans.Bytes(), 0o644); err != nil {
		return err
	}
	var table bytes.Buffer
	res.cpu.writeTable(&table)
	return os.WriteFile(filepath.Join(dir, "cpu_layers.txt"), table.Bytes(), 0o644)
}

// runtimeSampler reads the runtime/metrics the per-layer report uses.
type runtimeSampler struct{ samples []metrics.Sample }

const (
	rtSchedLat = iota
	rtGCCPU
	rtUserCPU
	rtIdleCPU
	rtHeapLive
)

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{samples: []metrics.Sample{
		rtSchedLat: {Name: "/sched/latencies:seconds"},
		rtGCCPU:    {Name: "/cpu/classes/gc/total:cpu-seconds"},
		rtUserCPU:  {Name: "/cpu/classes/user:cpu-seconds"},
		rtIdleCPU:  {Name: "/cpu/classes/idle:cpu-seconds"},
		rtHeapLive: {Name: "/gc/heap/live:bytes"},
	}}
}

// runtimeReading is one read of the sampler's metrics. The runtime
// updates the CPU classes only when a collection ends, so callers read
// right after runtime.GC.
type runtimeReading struct {
	schedCounts    []uint64
	gc, user, idle float64
	heapLive       uint64
}

func (rs *runtimeSampler) read() runtimeReading {
	metrics.Read(rs.samples)
	h := rs.samples[rtSchedLat].Value.Float64Histogram()
	return runtimeReading{
		schedCounts: append([]uint64(nil), h.Counts...),
		gc:          rs.samples[rtGCCPU].Value.Float64(),
		user:        rs.samples[rtUserCPU].Value.Float64(),
		idle:        rs.samples[rtIdleCPU].Value.Float64(),
		heapLive:    rs.samples[rtHeapLive].Value.Uint64(),
	}
}

// diffReadings returns the change from before to now as a one-pass total.
func diffReadings(before, now runtimeReading) runtimeTotals {
	t := runtimeTotals{
		Passes:      1,
		SchedCounts: make([]uint64, len(now.schedCounts)),
		GCCPU:       now.gc - before.gc,
		UserCPU:     now.user - before.user,
		IdleCPU:     now.idle - before.idle,
	}
	for i := range t.SchedCounts {
		t.SchedCounts[i] = now.schedCounts[i] - before.schedCounts[i]
	}
	return t
}

// runtimeTotals sums runtime/metrics deltas over passes. SchedCounts
// follows the bucket layout of /sched/latencies:seconds, which every
// process of one binary shares.
type runtimeTotals struct {
	Passes      int      `json:"passes"`
	SchedCounts []uint64 `json:"sched_counts"`
	GCCPU       float64  `json:"gc_cpu_s"`
	UserCPU     float64  `json:"user_cpu_s"`
	IdleCPU     float64  `json:"idle_cpu_s"`
}

// scaled returns the totals with CPU times scaled by f.
func (t runtimeTotals) scaled(f float64) runtimeTotals {
	t.GCCPU *= f
	t.UserCPU *= f
	t.IdleCPU *= f
	return t
}

func (t *runtimeTotals) add(o runtimeTotals) {
	if t.SchedCounts == nil {
		t.SchedCounts = make([]uint64, len(o.SchedCounts))
	}
	for i := range o.SchedCounts {
		t.SchedCounts[i] += o.SchedCounts[i]
	}
	t.Passes += o.Passes
	t.GCCPU += o.GCCPU
	t.UserCPU += o.UserCPU
	t.IdleCPU += o.IdleCPU
}

// schedLatencyP50 is the median goroutine scheduling latency in seconds:
// the middle of the histogram bucket holding the median sample.
func (t runtimeTotals) schedLatencyP50() float64 {
	var total uint64
	for _, c := range t.SchedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rs := newRuntimeSampler()
	metrics.Read(rs.samples)
	buckets := rs.samples[rtSchedLat].Value.Float64Histogram().Buckets
	var cum uint64
	for i, c := range t.SchedCounts {
		cum += c
		if 2*cum >= total {
			lo, hi := buckets[i], buckets[i+1]
			switch {
			case math.IsInf(hi, 1):
				return lo
			case math.IsInf(lo, -1):
				return hi
			}
			return (lo + hi) / 2
		}
	}
	return 0
}
