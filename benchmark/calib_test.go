package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

type node struct {
	next *node
	pad  [3]uint64
}

// garbage keeps the allocating goroutine's nodes on the heap; only that
// goroutine touches it.
var garbage []*node

// The calibration kernel never runs beside a collection, however busy
// the collector is, so a change in GC cost cannot move the scale that
// host times are divided by (host.calibration_us).
func TestCalibrationExcludesGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	// A pointer-dense live heap makes every mark phase long, and GOGC 1
	// with a goroutine allocating beside the calibration keeps the
	// collector busy nearly all the time.
	var live *node
	for i := 0; i < 1<<17; i++ {
		live = &node{next: live}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			garbage = append(garbage[:0], &node{}, &node{}, &node{})
		}
	}()
	var c calibrator
	for i := 0; i < 32; i++ {
		c.between(i, 32)
	}
	close(stop)
	wg.Wait()
	if c.gcOverlaps != 0 {
		t.Errorf("a collection ended during %d of 32 calibration batches", c.gcOverlaps)
	}
	if len(c.times) != calibrationSlices {
		t.Errorf("%d slices timed, want %d", len(c.times), calibrationSlices)
	}
	if got := debug.SetGCPercent(1); got != 1 {
		t.Errorf("GOGC after calibration = %d, want 1 restored", got)
	}
	runtime.KeepAlive(live)
}
