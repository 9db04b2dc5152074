// Package dma models the NIC's send and receive DMA engines (Fig. 1): a
// fixed descriptor setup cost, a bandwidth-limited transfer time, and
// serialisation of back-to-back transfers on the same engine.
package dma

import (
	"alpusim/internal/params"
	"alpusim/internal/sim"
)

// Engine is one DMA engine.
type Engine struct {
	name      string
	setup     sim.Time
	bwBpns    int // bytes per nanosecond
	busyUntil sim.Time

	transfers uint64
	bytes     uint64
	stall     sim.Time
}

// New returns an engine with the given setup cost and bandwidth
// (bytes/ns). Zero values select the calibrated defaults.
func New(name string, setup sim.Time, bwBpns int) *Engine {
	if setup == 0 {
		setup = params.DMASetupDelay
	}
	if bwBpns == 0 {
		bwBpns = params.DMABandwidthBpns
	}
	return &Engine{name: name, setup: setup, bwBpns: bwBpns}
}

// TransferTime returns the occupancy of a transfer of size bytes,
// excluding queueing.
func (e *Engine) TransferTime(size int) sim.Time {
	if size < 0 {
		size = 0
	}
	return e.setup + sim.Time(size/e.bwBpns)*sim.Nanosecond
}

// Transfer schedules a transfer of size bytes starting no earlier than now
// and returns its completion time. The engine serialises transfers.
func (e *Engine) Transfer(now sim.Time, size int) sim.Time {
	start := now
	if e.busyUntil > start {
		e.stall += e.busyUntil - start
		start = e.busyUntil
	}
	done := start + e.TransferTime(size)
	e.busyUntil = done
	e.transfers++
	e.bytes += uint64(max(size, 0))
	return done
}

// Transfers reports the number of transfers issued.
func (e *Engine) Transfers() uint64 { return e.transfers }

// Bytes reports the total bytes moved.
func (e *Engine) Bytes() uint64 { return e.bytes }

// StallTime reports cumulative queueing delay behind earlier transfers.
func (e *Engine) StallTime() sim.Time { return e.stall }
