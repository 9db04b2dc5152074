package mpi

import (
	"strings"
	"testing"

	"alpusim/internal/network"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// pingPong is the stall program: two ranks trade messages forever, so
// the event loop never drains and an armed watchdog must expire.
func pingPong(r *Rank) {
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

// recoverWatchdog runs progs expecting a watchdog expiry and returns it.
func recoverWatchdog(t *testing.T, cfg Config, progs []Program) (werr *sim.WatchdogError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a watchdog panic, got clean completion")
		}
		if pp, ok := r.(*sim.ProcessPanic); ok {
			werr, _ = pp.Value.(*sim.WatchdogError)
		} else {
			werr, _ = r.(*sim.WatchdogError)
		}
		if werr == nil {
			t.Fatalf("expected *sim.WatchdogError, got %v", r)
		}
	}()
	RunPrograms(cfg, progs)
	return nil
}

// A watchdog expiry on a world with a causal recorder names the slowest
// completed chain in its dump — the first thing to look at when a run
// hangs — in both the serial and the partitioned engine.
func TestWatchdogDumpNamesSlowestCausalChain(t *testing.T) {
	for _, parts := range []int{0, 2} {
		cfg := baseCfg(2)
		cfg.WatchdogLimit = 200 * sim.Microsecond
		cfg.Partitions = parts
		cfg.Causal = telemetry.NewCausal()
		werr := recoverWatchdog(t, cfg, []Program{pingPong, pingPong})
		if !strings.Contains(werr.Dump, "slowest causal chain: msg") {
			t.Errorf("par=%d: watchdog dump missing the causal chain line:\n%s",
				parts, werr.Dump)
		}
		if !strings.Contains(werr.Dump, "watchdog: last external progress poke") && parts > 0 {
			t.Errorf("par=%d: partitioned dump missing the last-poke line:\n%s",
				parts, werr.Dump)
		}
	}
}

// A drained world exposes its merged causal recorder: the analysis sees
// every exchanged message and its report passes the structural checks
// at any partition count, identically.
func TestWorldCausalReportPartitionInvariant(t *testing.T) {
	run := func(parts int) telemetry.CausalReport {
		cfg := baseCfg(2)
		cfg.Partitions = parts
		cfg.Causal = telemetry.NewCausal()
		w := RunPrograms(cfg, []Program{
			func(r *Rank) {
				for k := 0; k < 4; k++ {
					r.Send(1, k, 32)
				}
			},
			func(r *Rank) {
				for k := 0; k < 4; k++ {
					r.Recv(0, k, 32)
				}
			},
		})
		rep, ok := w.Causal.Analyze(2)
		if !ok {
			t.Fatalf("par=%d: no causal report", parts)
		}
		return rep
	}
	serial := run(0)
	if serial.Messages < 4 {
		t.Fatalf("causal recorder saw %d messages, want >= 4", serial.Messages)
	}
	pm := 0
	for _, b := range serial.Blame {
		pm += b.Permille
	}
	if pm != 1000 {
		t.Errorf("blame permille sums to %d", pm)
	}
	for _, parts := range []int{1, 2} {
		got := run(parts)
		if got.CriticalPath != serial.CriticalPath || got.Messages != serial.Messages {
			t.Errorf("par=%d report diverged: critpath %v/%v messages %d/%d",
				parts, got.CriticalPath, serial.CriticalPath, got.Messages, serial.Messages)
		}
	}
}

// A world given both Phases and Causal records each message once: Phases
// receives a copy of the folded Causal records, including the inject
// stamps a workload writes straight into Causal, so both report the same
// breakdown for every message at any partition count, clean and under
// faults.
func TestPhasesCopyMatchesCausal(t *testing.T) {
	const ranks, msgs = 4, 6
	for _, faults := range []bool{false, true} {
		var par1 telemetry.Totals
		for _, parts := range []int{0, 1, 4} {
			cfg := baseCfg(ranks)
			cfg.Partitions = parts
			cfg.Causal, cfg.Phases = telemetry.NewCausal(), telemetry.NewPhases()
			if faults {
				cfg.Faults = &network.FaultModel{
					Seed: 42, DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.01,
				}
			}
			Run(cfg, func(r *Rank) {
				next, prev := (r.Rank()+1)%ranks, (r.Rank()+ranks-1)%ranks
				reqs := make([]*Request, msgs)
				for k := range reqs {
					reqs[k] = r.Irecv(prev, k, 64)
				}
				for k := 0; k < msgs; k++ {
					if r.Rank() == 0 { // one writer: the recorder is not sharded
						cfg.Causal.Stamp(MsgKey(0, k), telemetry.StampInject, r.Now())
					}
					r.Send(next, k, 64)
				}
				r.Waitall(reqs...)
			})
			for src := 0; src < ranks; src++ {
				for k := 0; k < msgs; k++ {
					bc, okc := cfg.Causal.Breakdown(MsgKey(src, k))
					bp, okp := cfg.Phases.Breakdown(MsgKey(src, k))
					if !okc || !okp || bc != bp {
						t.Fatalf("faults=%v par=%d msg %d/%d: causal %+v (%v) != phases %+v (%v)",
							faults, parts, src, k, bc, okc, bp, okp)
					}
					if src == 0 && bc.Durs[telemetry.PhaseInject] <= 0 {
						t.Errorf("faults=%v par=%d msg 0/%d: inject stamp missing from the copy", faults, parts, k)
					}
				}
			}
			tc, tp := cfg.Causal.Totals(), cfg.Phases.Totals()
			if tc != tp || tc.Messages < ranks*msgs {
				t.Errorf("faults=%v par=%d: totals causal %+v phases %+v", faults, parts, tc, tp)
			}
			if parts == 1 {
				par1 = tc
			} else if parts > 1 && tc != par1 {
				t.Errorf("faults=%v par=%d: totals %+v != par1 %+v", faults, parts, tc, par1)
			}
		}
	}
}
