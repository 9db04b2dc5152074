// Command benchmark measures the alpusim simulator end to end and layer by
// layer on six seeded workloads.
//
// It is a module of its own, so run it from its directory:
//
//	go run . -workload halo -seed 7 -trace 0
//	go run .                            # every workload in turn
//	go run . compare -spec ../BENCHMARK.json parent/*.json change/*.json
//
// or from the repository root, building into .bench_build with caches
// kept inside the checkout, bash benchmark/run.sh with the same flags.
// Each workload run prints its metrics by name with units, then, as its
// last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "pass":
			os.Exit(passMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// digestFile holds the expected result digest of every workload at one
// seed and scale: the correctness oracle for simulated outcomes.
//
//go:embed digests.json
var digestFile []byte

type digestSet struct {
	Seed    int64             `json:"seed"`
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

func loadDigests() (digestSet, error) {
	var ds digestSet
	if err := json.Unmarshal(digestFile, &ds); err != nil {
		return ds, fmt.Errorf("digests.json: %w", err)
	}
	return ds, nil
}

// checkDigest marks the run failed when it used the digest file's seed
// and scale but produced a different digest.
func (res *runResult) checkDigest(ds digestSet) {
	if res.cfg.seed != ds.Seed || res.cfg.scale != ds.Scale {
		return
	}
	res.checked = true
	res.expected = ds.Digests[res.wl.name]
	if res.digestMismatch() && res.failure == nil {
		res.failure = fmt.Errorf("digest %016x, digests.json wants %q", res.digest, res.expected)
	}
}

func (res *runResult) digestMismatch() bool {
	return res.checked && res.expected != fmt.Sprintf("%016x", res.digest)
}

func (res *runResult) digestNote() string {
	switch {
	case !res.checked:
		return " (digests.json holds no digest for this seed and scale)"
	case res.digestMismatch():
		return fmt.Sprintf(" (MISMATCH: digests.json wants %q)", res.expected)
	}
	return " (matches digests.json)"
}

// runSeconds is how long a run measures each workload: BENCHMARK.json's
// run_seconds. The run length belongs to the benchmark, so that both
// sides of a comparison measure alike and the bounds, chosen from runs
// this long, hold; -seconds exists only to state it.
const runSeconds = 15

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: all of them)")
	seed := fs.Int64("seed", 1, "seed the world lists are drawn from")
	seconds := fs.Float64("seconds", runSeconds, "run length per workload; must be the benchmark's own")
	trace := fs.Int("trace", 0, "1: alternate untraced and traced passes and report per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for spans, CPU profiles and layer tables")
	scale := fs.Float64("scale", 1, "world-list length multiplier")
	out := fs.String("out", "", "also write the run record (input of compare) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *scale <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; want -workload NAME -seed N -trace 0|1")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "benchmark: -seconds %g: the run length is fixed at %d s\n", *seconds, runSeconds)
		return 2
	}
	wls := workloads
	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		wls = []workload{wl}
	}
	if *out != "" && len(wls) != 1 {
		fmt.Fprintln(stderr, "benchmark: -out needs -workload")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, traceDir: *traceDir}
	if err := run(cfg, wls, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// run measures each workload in turn, printing its report and result
// line, and writes the run record to out when out is set.
func run(cfg runConfig, wls []workload, out string, stdout io.Writer) error {
	ds, err := loadDigests()
	if err != nil {
		return err
	}
	for _, wl := range wls {
		res, err := runWorkload(wl, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.checkDigest(ds)
		res.report(stdout)
		r := res.result()
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if out != "" {
			if err := writeRecord(out, res, r); err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout, string(line))
	}
	return nil
}

// record is one run as compare reads it back.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"`
	Worlds     int     `json:"worlds_per_pass"`
	Digest     string  `json:"digest"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Result     result  `json:"result"`
}

func writeRecord(path string, res *runResult, r result) error {
	rec := record{
		Workload: res.wl.name, Seed: res.cfg.seed, Trace: res.cfg.trace, Scale: res.cfg.scale,
		Seconds: res.cfg.seconds, Passes: len(res.passes), Worlds: res.worlds, Digest: fmt.Sprintf("%016x", res.digest),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Result: r,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Workload == "" {
		return rec, fmt.Errorf("%s: not a run record", path)
	}
	return rec, nil
}
