package main

import (
	"context"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// The host this benchmark was defined on is a small VM whose speed
// drifts by tens of percent over minutes as its neighbours load the
// machine (baseline.json holds the unscaled spreads). Each pass
// therefore also times a fixed calibration kernel between its worlds,
// and host times are reported scaled to the kernel's speed on that
// host: a pass that took raw seconds while the kernel's median slice
// took cal is reported as raw * refSliceTime / cal.
//
// The kernel shares no code with the simulator but has its host
// profile: goroutine handoffs over unbuffered channels (the sim.Process
// switch) with a little table and map work per switch. It is timed
// between worlds because the host's speed changes within a pass.
//
// The kernel must not see the simulator's garbage collector: a
// collection running beside it would slow it, shrink the scaled times,
// and so hide part of any change in GC cost from them. Collection
// is therefore off while the slices run. Turning it off first waits for
// a cycle in flight to finish marking; the pass charges that wait to
// wall_s, since without the kernel the cycle would have overlapped the
// next world.

// refSliceTime is the kernel's typical median slice time between worlds
// on the reference host (a 2-vCPU Intel Xeon VM, GOMAXPROCS 2, go1.24)
// in its quiet periods.
const refSliceTime = 120 * time.Microsecond

// calibrationSlices is how many kernel slices a pass times, spread
// evenly between its worlds: about 15 ms of a half-second pass.
const calibrationSlices = 128

// calibrationLabel marks the kernel's CPU samples, which the per-layer
// CPU split leaves out.
var calibrationLabel = pprof.Labels("bench", "calibration")

// calibrator times the kernel between a pass's worlds.
type calibrator struct {
	table []uint32
	m     map[uint32]uint32
	times []float64
	// gcOverlaps counts batches during whose slices a collection ended;
	// it stays 0 while collection is off around the slices.
	gcOverlaps int
	cycles     []metrics.Sample
}

// between runs the slices due before world i of n, with collection off,
// and returns how long turning collection off waited for a cycle in
// flight.
func (c *calibrator) between(i, n int) time.Duration {
	lo, hi := calibrationSlices*i/n, calibrationSlices*(i+1)/n
	if lo == hi {
		return 0
	}
	if c.table == nil {
		c.table = make([]uint32, 1<<14)
		c.m = make(map[uint32]uint32, 2048)
		c.cycles = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	}
	start := time.Now()
	gcPercent := debug.SetGCPercent(-1)
	wait := time.Since(start)
	defer debug.SetGCPercent(gcPercent)
	metrics.Read(c.cycles)
	before := c.cycles[0].Value.Uint64()
	pprof.Do(context.Background(), calibrationLabel, func(context.Context) {
		for k := lo; k < hi; k++ {
			start := time.Now()
			c.slice()
			c.times = append(c.times, float64(time.Since(start)))
		}
	})
	metrics.Read(c.cycles)
	if c.cycles[0].Value.Uint64() != before {
		c.gcOverlaps++
	}
	return wait
}

func (c *calibrator) median() time.Duration { return time.Duration(median(c.times)) }

func (c *calibrator) slice() {
	ping, pong := make(chan uint32), make(chan uint32)
	go func() {
		for v := range ping {
			pong <- v*2654435761 + 1
		}
		close(pong)
	}()
	v := uint32(7)
	for i := 0; i < 200; i++ {
		ping <- v
		v = <-pong
		for k := 0; k < 16; k++ {
			j := (v >> 7) & uint32(len(c.table)-1)
			c.table[j] += v
			v ^= c.table[(j*31)&uint32(len(c.table)-1)]
		}
		c.m[v&1023] += v
	}
	close(ping)
	<-pong
}
