package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"alpusim/internal/network"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// settleGoroutines waits until runtime.NumGoroutine is back to want: a
// torn-down process (or a partition worker) yields a moment before its
// goroutine exits. It fails only on a surplus — an earlier test's exiting
// goroutine may have been counted in want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("%d goroutines left after the worlds, want %d", n, want)
	}
}

// exchange is a finite ping-pong between rank pairs (0,1), (2,3), ...
func exchange(r *Rank) {
	peer := r.Rank() ^ 1
	for k := 0; k < 8; k++ {
		if r.Rank()%2 == 0 {
			r.Send(peer, k, 8)
			r.Recv(peer, k, 8)
		} else {
			r.Recv(peer, k, 8)
			r.Send(peer, k, 8)
		}
	}
}

// runRecovering runs prog on every rank of a world built from cfg and
// returns what RunSim panicked with (nil for a clean run).
func runRecovering(cfg Config, prog Program) (r any) {
	defer func() { r = recover() }()
	w := NewWorld(cfg)
	for i := 0; i < cfg.Ranks; i++ {
		w.SpawnRank(i, prog)
	}
	w.RunSim()
	return nil
}

// TestWorldsLeaveNoGoroutines: every kind of world — clean, faulted,
// watchdog-killed, panicking, unwound by Goexit, deadlocked, or built and
// never run — gives back every goroutine it started, serial and
// partitioned, and its failure surfaces exactly as without teardown.
func TestWorldsLeaveNoGoroutines(t *testing.T) {
	const worlds = 4
	for _, parts := range []int{0, 2} {
		cfg := alpuCfg(2, 128)
		cfg.Partitions = parts
		faulty := cfg
		faulty.Faults = &network.FaultModel{Seed: 7, DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.02}
		stalled := cfg
		stalled.WatchdogLimit = 200 * sim.Microsecond
		kinds := []struct {
			name  string
			run   func() any
			check func(t *testing.T, r any)
		}{
			{"clean", func() any { return runRecovering(cfg, exchange) }, nil},
			{"faulted", func() any { return runRecovering(faulty, exchange) }, nil},
			{"watchdog", func() any { return runRecovering(stalled, pingPong) }, func(t *testing.T, r any) {
				if _, ok := r.(*sim.WatchdogError); !ok {
					t.Fatalf("got %v, want a watchdog expiry", r)
				}
			}},
			{"panic", func() any {
				return runRecovering(cfg, func(r *Rank) {
					r.Barrier()
					if r.Rank() == 1 {
						panic("rank failure")
					}
					exchange(r)
				})
			}, func(t *testing.T, r any) {
				pp, ok := r.(*sim.ProcessPanic)
				if !ok {
					t.Fatalf("got %v, want the rank's ProcessPanic", r)
				}
				if pp.Proc != "rank1" || pp.Value != "rank failure" ||
					!bytes.Contains(pp.Stack, []byte("TestWorldsLeaveNoGoroutines")) {
					t.Fatalf("re-raised panic lost its origin: proc %q value %v stack:\n%s", pp.Proc, pp.Value, pp.Stack)
				}
			}},
			{"goexit", func() any {
				// What t.Fatal does inside a test-driver rank.
				return runRecovering(cfg, func(r *Rank) {
					if r.Rank() == 0 {
						r.Send(1, 0, 8)
						runtime.Goexit()
					}
					r.Recv(0, 0, 8)
					r.Recv(0, 1, 8)
				})
			}, nil},
			{"deadlock", func() (r any) {
				defer func() { r = recover() }()
				Run(cfg, func(r *Rank) {
					if r.Rank() == 0 {
						r.Recv(1, 0, 8)
					}
				})
				return nil
			}, func(t *testing.T, r any) {
				want := "mpi: deadlock — 1 ranks still blocked when the event queue drained"
				if r != want {
					t.Fatalf("got %v, want %q", r, want)
				}
			}},
			{"unrun", func() any {
				w := NewWorld(cfg)
				w.SpawnRank(0, exchange)
				w.Close()
				w.Close()
				return nil
			}, nil},
		}
		for _, k := range kinds {
			t.Run(fmt.Sprintf("par%d/%s", parts, k.name), func(t *testing.T) {
				base := runtime.NumGoroutine()
				for i := 0; i < worlds; i++ {
					r := k.run()
					if k.check != nil {
						k.check(t, r)
					} else if r != nil {
						t.Fatalf("world failed: %v", r)
					}
				}
				settleGoroutines(t, base)
			})
		}
	}
}

// TestCloseKeepsEngineCounters: teardown is not simulation — each
// engine's clock, Executed and Switches read after Close what the run
// left, and the blocked ranks stay counted.
func TestCloseKeepsEngineCounters(t *testing.T) {
	for _, parts := range []int{0, 2} {
		cfg := alpuCfg(4, 128)
		cfg.Partitions = parts
		w := NewWorld(cfg)
		for i := 0; i < cfg.Ranks; i++ {
			w.SpawnRank(i, func(r *Rank) {
				if r.Rank()%2 == 0 {
					exchange(r)
					r.Recv(AnySource, 99, 8) // never sent: the rank stays parked
				} else {
					exchange(r)
				}
			})
		}
		w.run()
		var before []string
		for _, e := range w.Engines {
			before = append(before, fmt.Sprint(e.Now(), e.Executed(), e.Switches()))
		}
		w.Close()
		for i, e := range w.Engines {
			if got := fmt.Sprint(e.Now(), e.Executed(), e.Switches()); got != before[i] {
				t.Errorf("par%d engine %d: (now, executed, switches) %s after Close, %s before", parts, i, got, before[i])
			}
		}
		if n := w.ranksLive.Load(); n != 2 {
			t.Errorf("par%d: %d ranks live after Close, want 2", parts, n)
		}
	}
}

// TestTeardownRecordsNothing: a world stopped by its watchdog mid-run,
// with every recorder on, exports the same bytes before and after Close —
// the deferred spans of a firmware packet, a host request or an ALPU
// insert cut short by the teardown record nothing, in the caller's
// recorders (serial) or the partition bundles. About a third of the
// limits swept stop some firmware loop mid-operation.
func TestTeardownRecordsNothing(t *testing.T) {
	for _, parts := range []int{0, 1, 2} {
		for limit := 4 * sim.Microsecond; limit < 10*sim.Microsecond; limit += 150 * sim.Nanosecond {
			cfg := alpuCfg(4, 128)
			cfg.Partitions = parts
			cfg.WatchdogLimit = limit
			cfg.Tracer = telemetry.NewTracer()
			cfg.Causal = telemetry.NewCausal()
			cfg.Phases = telemetry.NewPhases()
			cfg.Series = telemetry.NewSampler(0, 0)
			cfg.Telemetry = telemetry.NewRegistry()
			w := NewWorld(cfg)
			for i := 0; i < cfg.Ranks; i++ {
				w.SpawnRank(i, func(r *Rank) {
					// Bursts of posted receives keep the ALPUs inserting.
					peer := r.Rank() ^ 1
					reqs := make([]*Request, 16)
					for {
						for k := range reqs {
							reqs[k] = r.Irecv(peer, k, 8)
						}
						for k := range reqs {
							r.Send(peer, k, 8)
						}
						r.Waitall(reqs...)
					}
				})
			}
			func() {
				defer func() {
					if _, ok := recover().(*sim.WatchdogError); !ok {
						t.Fatalf("par%d limit %v: the world did not stop on its watchdog", parts, limit)
					}
				}()
				w.run()
			}()
			before := recorderExports(t, w, cfg)
			w.Close()
			if after := recorderExports(t, w, cfg); after != before {
				t.Errorf("par%d limit %v: recorder exports changed on Close (%d vs %d bytes)",
					parts, limit, len(after), len(before))
			}
		}
	}
}

// recorderExports renders everything the world's recorders hold: the
// trace, the merged partition bundles, the sim-time profile, the
// lifecycle and phase records, the time series and the metrics.
func recorderExports(t *testing.T, w *World, cfg Config) string {
	t.Helper()
	var b strings.Builder
	for _, write := range []func() error{
		func() error { return telemetry.WriteTrace(&b, cfg.Tracer) },
		func() error { return w.WriteFlight(&b) },
		func() error { return telemetry.WriteSimProfile(&b, w.tracers()...) },
		func() error { return cfg.Series.WriteJSON(&b) },
		func() error { return w.TelemetrySnapshot().WriteJSON(&b) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	rep, _ := cfg.Causal.Analyze(4)
	fmt.Fprintf(&b, "%+v\n%+v\n", rep, cfg.Phases.Totals())
	return b.String()
}
