package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alpusim/internal/network"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// worldOutputs captures every observable byte stream a partitioned run
// must reproduce identically at any partition count: the soak matching
// digest, the rendered telemetry table, the merged trace JSON, the phase
// totals, and the fault counters.
type worldOutputs struct {
	digest uint64
	table  string
	trace  string
	phases string
	faults string
	series string
}

func partitionedOutputs(t *testing.T, parts int, withFaults bool) worldOutputs {
	t.Helper()
	const ranks = 8
	plan := buildSoakPlan(rand.New(rand.NewSource(23)), ranks, 64)
	tracer := telemetry.NewTracer()
	phases := telemetry.NewPhases()
	sampler := telemetry.NewSampler(0, 0)
	cfg := Config{
		Ranks:      ranks,
		Partitions: parts,
		Tracer:     tracer,
		Phases:     phases,
		Series:     sampler,
	}
	if withFaults {
		cfg.Faults = &network.FaultModel{
			Seed: 42, DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.01,
		}
	}
	digest, w := soakMatchDigest(t, fmt.Sprintf("par%d", parts), cfg, plan, ranks)
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, tracer); err != nil {
		t.Fatalf("par%d: trace: %v", parts, err)
	}
	var ts bytes.Buffer
	if err := sampler.WriteJSON(&ts); err != nil {
		t.Fatalf("par%d: timeseries: %v", parts, err)
	}
	return worldOutputs{
		digest: digest,
		table:  w.TelemetrySnapshot().Table(),
		trace:  buf.String(),
		phases: fmt.Sprintf("%+v", phases.Totals()),
		faults: w.Net.FaultStats().String(),
		series: ts.String(),
	}
}

// TestPartitionedCanonicalDeterminism is the tentpole acceptance check at
// package level: the same world produces byte-identical observables at
// every Partitions >= 1 — partitioning decides what runs concurrently,
// never what the simulation computes. Checked clean and under the chaos
// fault mix (where the per-source fault streams must also be layout
// invariant).
func TestPartitionedCanonicalDeterminism(t *testing.T) {
	for _, faults := range []bool{false, true} {
		name := "clean"
		if faults {
			name = "faults"
		}
		t.Run(name, func(t *testing.T) {
			ref := partitionedOutputs(t, 1, faults)
			if ref.trace == "" || !strings.Contains(ref.table, "\n") {
				t.Fatal("reference run produced empty observables")
			}
			if !strings.Contains(ref.series, "nic0/posted/depth") {
				t.Fatalf("reference run produced no time series:\n%s", ref.series)
			}
			for _, parts := range []int{2, 3, 4, 8} {
				got := partitionedOutputs(t, parts, faults)
				if got.digest != ref.digest {
					t.Errorf("par%d: match digest %#x != par1 %#x", parts, got.digest, ref.digest)
				}
				if got.table != ref.table {
					t.Errorf("par%d: telemetry table diverged from par1:\n--- par1\n%s\n--- par%d\n%s",
						parts, ref.table, parts, got.table)
				}
				if got.trace != ref.trace {
					t.Errorf("par%d: trace bytes diverged from par1 (%d vs %d bytes)",
						parts, len(got.trace), len(ref.trace))
				}
				if got.phases != ref.phases {
					t.Errorf("par%d: phase totals %s != par1 %s", parts, got.phases, ref.phases)
				}
				if got.faults != ref.faults {
					t.Errorf("par%d: fault stats %s != par1 %s", parts, got.faults, ref.faults)
				}
				if got.series != ref.series {
					t.Errorf("par%d: time-series bytes diverged from par1:\n--- par1\n%s\n--- par%d\n%s",
						parts, ref.series, parts, got.series)
				}
			}
		})
	}
}

// runRecoveringWatchdog runs progs and returns the recovered watchdog
// error (nil if the world drained).
func runRecoveringWatchdog(cfg Config, progs []Program) (err *sim.WatchdogError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(*sim.WatchdogError); !ok {
				panic(r)
			}
		}
	}()
	RunPrograms(cfg, progs)
	return nil
}

// livelockPair builds 4-rank programs where ranks a and b ping-pong
// forever while the others finish immediately.
func livelockPair(a, b int) []Program {
	progs := make([]Program, 4)
	for i := range progs {
		i := i
		switch i {
		case a:
			progs[i] = func(r *Rank) {
				for {
					r.Send(b, 1, 64)
					r.Recv(b, 2, 64)
				}
			}
		case b:
			progs[i] = func(r *Rank) {
				for {
					r.Recv(a, 1, 64)
					r.Send(a, 2, 64)
				}
			}
		default:
			progs[i] = func(*Rank) {}
		}
	}
	return progs
}

// TestPartitionedWatchdogNonMainPartition pins the regression the
// partition runner makes possible: a stall confined to a partition other
// than the coordinator's must still trip the watchdog, and the flight
// recorder must still dump. Ranks 2 and 3 (partition 1 of 2) livelock
// while partition 0 drains completely.
func TestPartitionedWatchdogNonMainPartition(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	cfg := Config{
		Ranks:          4,
		Partitions:     2,
		WatchdogLimit:  2 * sim.Millisecond,
		FlightDumpPath: dump,
	}
	err := runRecoveringWatchdog(cfg, livelockPair(2, 3))
	if err == nil {
		t.Fatal("livelocked non-main partition did not trip the watchdog")
	}
	if !strings.Contains(err.Dump, "rank2") && !strings.Contains(err.Dump, "rank3") {
		t.Errorf("watchdog dump does not name the stalled ranks:\n%s", err.Dump)
	}
	if !strings.Contains(err.Dump, "faults:") {
		t.Errorf("watchdog dump is missing the model diagnostics:\n%s", err.Dump)
	}
	data, ferr := os.ReadFile(dump)
	if ferr != nil {
		t.Fatalf("flight recorder did not dump: %v", ferr)
	}
	if !bytes.Contains(data, []byte(`"ph"`)) {
		t.Errorf("flight dump %q does not look like trace JSON", dump)
	}
}

// TestPartitionedWatchdogCrossPartition livelocks ranks 0 and 3 — on
// different partitions, so each partition repeatedly drains, disarms its
// watchdog poller, and is re-armed by the barrier's injection Poke. The
// stall must still be caught.
func TestPartitionedWatchdogCrossPartition(t *testing.T) {
	cfg := Config{
		Ranks:         4,
		Partitions:    2,
		WatchdogLimit: 2 * sim.Millisecond,
		FlightEvents:  -1,
	}
	if err := runRecoveringWatchdog(cfg, livelockPair(0, 3)); err == nil {
		t.Fatal("cross-partition livelock did not trip the watchdog")
	}
}

// TestPartitionedDrainsClean checks a partitioned world still satisfies
// the serial invariants: all queues empty, no ranks blocked, watchdog
// armed but silent.
func TestPartitionedDrainsClean(t *testing.T) {
	const ranks = 6
	plan := buildSoakPlan(rand.New(rand.NewSource(5)), ranks, 48)
	cfg := alpuCfg(ranks, 32)
	cfg.Partitions = 3
	cfg.WatchdogLimit = 50 * sim.Millisecond
	cfg.FlightEvents = -1
	soakMatchDigest(t, "par-alpu", cfg, plan, ranks)
}

// A negative partition count is a caller error, rejected like a world
// without ranks rather than silently run serial.
func TestNewWorldRejectsNegativePartitions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld accepted Partitions = -3")
		}
	}()
	NewWorld(Config{Ranks: 2, Partitions: -3})
}
