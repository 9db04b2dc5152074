package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFrameBucket(t *testing.T) {
	for _, c := range []struct {
		fn     string
		bucket string // "" means the frame is skipped
	}{
		{"alpusim/internal/sim.(*Engine).Step", "sim"},
		{"alpusim/internal/cache.(*Cache).Access", "memsys"},
		{"alpusim/internal/memsys.(*Hierarchy).access", "memsys"},
		{"alpusim/internal/nic.(*NIC).firmware.func1", "nic"},
		{"alpusim/internal/alpu.(*Device).tick", "alpu"},
		{"alpusim/internal/match.(*List).Search", "match"},
		{"alpusim/internal/network.(*Network).Send", "network"},
		{"alpusim/internal/host.(*Host).Wait", "mpi"},
		{"alpusim/internal/proc.(*Engine).Cycles", "mpi"},
		{"alpusim/internal/telemetry.WriteTrace", "telemetry"},
		{"alpusim/internal/trace.(*Histogram).Add", "telemetry"},
		{"alpusim/internal/params.HostCPU", "other"},
		{"main.runWorld", "other"},
		{"runtime.chanrecv", "sched"},
		{"runtime.park_m", "sched"},
		{"runtime.schedule", "sched"},
		{"runtime.futex", "sched"},
		{"runtime.mallocgc", "gc"},
		{"runtime.gcBgMarkWorker", "gc"},
		{"runtime.scanobject", "gc"},
		{"runtime.(*mspan).nextFreeIndex", "gc"},
		{"runtime.memmove", ""},
		{"internal/runtime/maps.(*Map).getWithKeySmall", ""},
		{"fmt.Sprintf", ""},
	} {
		b, ok := frameBucket(c.fn)
		if c.bucket == "" {
			if ok {
				t.Errorf("frameBucket(%q) = %q, want skipped", c.fn, b)
			}
			continue
		}
		if !ok || b != c.bucket {
			t.Errorf("frameBucket(%q) = %q, %v; want %q", c.fn, b, ok, c.bucket)
		}
	}
}

func TestStackBucketSkipsToCaller(t *testing.T) {
	p := &profile{stacks: map[uint64][]string{
		1: {"runtime.memmove"},
		2: {"fmt.Sprintf", "alpusim/internal/nic.(*NIC).PublishTelemetry"}, // inlined pair, innermost first
		3: {"main.runWorld"},
	}}
	if got := p.stackBucket(profSample{locs: []uint64{1, 2, 3}}); got != "nic" {
		t.Errorf("stackBucket = %q, want nic", got)
	}
	if got := p.stackBucket(profSample{locs: []uint64{1}}); got != "other" {
		t.Errorf("unclassifiable stack = %q, want other", got)
	}
}

func TestCalibrationSamplesExcluded(t *testing.T) {
	p := &profile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		stacks:      map[uint64][]string{1: {"alpusim/internal/sim.(*Engine).Step"}, 2: {"runtime.chanrecv"}},
		samples: []profSample{
			{locs: []uint64{1}, values: []int64{1, 10}},
			{locs: []uint64{2}, values: []int64{1, 30}, labels: map[string]string{"bench": "calibration"}},
		},
	}
	var c cpuShares
	c.add(p)
	if c.total != 10 || c.share("sim") != 1 {
		t.Errorf("total %d, sim share %v; the calibration sample must not count", c.total, c.share("sim"))
	}
}

// The decoder reads a real runtime/pprof profile of simulated worlds:
// samples land in simulator buckets and the shares add up to one.
func TestParseRealProfile(t *testing.T) {
	wl, _ := workloadByName("preposted-baseline")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		runPass(wl, 5, 20, nil)
	}
	pprof.StopCPUProfile()

	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if prof.valueIndex("cpu/nanoseconds") < 0 {
		t.Fatalf("sample types %v lack cpu/nanoseconds", prof.sampleTypes)
	}
	if len(prof.samples) == 0 || len(prof.stacks) == 0 {
		t.Fatalf("decoded %d samples, %d locations", len(prof.samples), len(prof.stacks))
	}
	var c cpuShares
	c.add(prof)
	var sum, simulator float64
	for _, b := range cpuBuckets {
		sum += c.share(b)
		if b != "other" && b != "gc" && b != "sched" {
			simulator += c.share(b)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if simulator == 0 {
		t.Errorf("no CPU time in any simulator layer: %v", c.ns)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("want an error for non-gzip input")
	}
}
