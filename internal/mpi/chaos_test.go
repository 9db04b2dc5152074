package mpi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
)

// The chaos soak: the random-traffic soak plan of soak_test.go, run over a
// faulty network with the NIC reliability protocol recovering. The
// invariant is the strongest the model offers: the matching outcome (which
// sender and tag each posted receive resolved to, and its size) must be
// byte-identical to the fault-free run — drops, duplicates, reordering and
// corruption may cost time, never correctness.

// chaosWatchdog bounds each faulty world; a correct protocol drains these
// plans in well under a simulated millisecond.
const chaosWatchdog = 100 * sim.Millisecond

// chaosMixes is the fault matrix: each class alone at >=1%, then all
// together (the ISSUE acceptance mix).
func chaosMixes() map[string]network.FaultModel {
	return map[string]network.FaultModel{
		"drop":    {DropProb: 0.02},
		"dup":     {DupProb: 0.02},
		"reorder": {ReorderProb: 0.05},
		"corrupt": {CorruptProb: 0.02},
		"all":     {DropProb: 0.01, DupProb: 0.01, ReorderProb: 0.01, CorruptProb: 0.01},
	}
}

// soakMatchDigest runs the plan and folds every receive's matching outcome
// into an FNV-1a digest, rank by rank in plan order — deliberately
// independent of completion timing, which faults are allowed to change.
func soakMatchDigest(t *testing.T, label string, cfg Config, plan []soakOp, ranks int) (uint64, *World) {
	t.Helper()
	statuses := make([][]Status, ranks)
	progs := make([]Program, ranks)
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		progs[rank] = func(r *Rank) {
			var reqs []*Request
			for _, op := range plan {
				if op.dst != rank {
					continue
				}
				src := op.src
				if op.wildcard {
					src = AnySource
				}
				reqs = append(reqs, r.Irecv(src, op.tag, op.size))
			}
			r.Barrier()
			for _, op := range plan {
				if op.src != rank {
					continue
				}
				r.Wait(r.Isend(op.dst, op.tag, op.size))
			}
			for _, req := range reqs {
				r.Wait(req)
				statuses[rank] = append(statuses[rank], req.Status())
			}
			r.Barrier()
		}
	}
	w := RunPrograms(cfg, progs)
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	for rank, sts := range statuses {
		for i, st := range sts {
			mix(uint64(rank))
			mix(uint64(i))
			mix(uint64(int64(st.Source)))
			mix(uint64(int64(st.Tag)))
			mix(uint64(int64(st.Size)))
		}
	}
	if label != "" {
		for i, n := range w.NICs {
			if n.PostedLen() != 0 || n.UnexpLen() != 0 {
				t.Errorf("%s nic%d: leftovers posted=%d unexp=%d",
					label, i, n.PostedLen(), n.UnexpLen())
			}
			if p := n.RelPending(); p != 0 {
				t.Errorf("%s nic%d: %d reliability packets still outstanding after drain",
					label, i, p)
			}
		}
	}
	return h, w
}

// relTotals sums the reliability counters over all NICs.
func relTotals(w *World) nic.RelStats {
	var tot nic.RelStats
	for _, n := range w.NICs {
		r := n.Rel()
		tot.DataSent += r.DataSent
		tot.Retransmits += r.Retransmits
		tot.Timeouts += r.Timeouts
		tot.AcksSent += r.AcksSent
		tot.NacksSent += r.NacksSent
		tot.RNRSent += r.RNRSent
		tot.CsumDrops += r.CsumDrops
		tot.DupDrops += r.DupDrops
		tot.GapDrops += r.GapDrops
		tot.Recoveries += r.Recoveries
	}
	return tot
}

// TestChaosSoakMatchesFaultFree is the acceptance gate: every fault mix,
// over both the baseline and an ALPU NIC, must reproduce the fault-free
// matching digest exactly, with the reliability engine visibly working.
func TestChaosSoakMatchesFaultFree(t *testing.T) {
	const ranks = 4
	msgs := 48
	if testing.Short() {
		msgs = 24
	}
	plan := buildSoakPlan(rand.New(rand.NewSource(11)), ranks, msgs)
	configs := map[string]Config{
		"baseline": baseCfg(ranks),
		"alpu64":   alpuCfg(ranks, 64),
	}
	for cfgName, cfg := range configs {
		clean, _ := soakMatchDigest(t, cfgName+"/clean", cfg, plan, ranks)
		for mixName, fm := range chaosMixes() {
			fm := fm
			fm.Seed = 42
			faulty := cfg
			faulty.Faults = &fm
			faulty.WatchdogLimit = chaosWatchdog
			got, w := soakMatchDigest(t, cfgName+"/"+mixName, faulty, plan, ranks)
			if got != clean {
				t.Errorf("%s/%s: matching digest %#x != fault-free %#x",
					cfgName, mixName, got, clean)
			}
			fs := w.Net.FaultStats()
			if fs.Total() == 0 {
				t.Errorf("%s/%s: fault model injected nothing", cfgName, mixName)
			}
			rel := relTotals(w)
			switch mixName {
			case "drop", "all":
				if rel.Retransmits == 0 {
					t.Errorf("%s/%s: %d drops but zero retransmits", cfgName, mixName, fs.Dropped)
				}
			case "dup":
				if rel.DupDrops == 0 {
					t.Errorf("%s/%s: %d duplicates but zero dup discards", cfgName, mixName, fs.Duplicated)
				}
			case "corrupt":
				if rel.CsumDrops == 0 {
					t.Errorf("%s/%s: %d corruptions but zero checksum discards", cfgName, mixName, fs.Corrupted)
				}
			}
			if mixName == "all" && rel.NacksSent == 0 && rel.Timeouts == 0 {
				t.Errorf("%s/all: no NACKs and no timeouts despite %d dropped/reordered",
					cfgName, fs.Dropped+fs.Reordered)
			}
		}
	}
}

// TestChaosSameSeedDeterministic re-runs one chaotic world and requires the
// injected fault sequence, the reliability counters, and the completion
// digest to be bit-identical — the property the CI determinism check and
// the -seed flag rest on.
func TestChaosSameSeedDeterministic(t *testing.T) {
	const ranks = 4
	plan := buildSoakPlan(rand.New(rand.NewSource(5)), ranks, 32)
	run := func() (uint64, network.FaultStats, nic.RelStats) {
		cfg := alpuCfg(ranks, 64)
		cfg.Faults = &network.FaultModel{
			Seed: 99, DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.02,
		}
		cfg.WatchdogLimit = chaosWatchdog
		digest, w := soakMatchDigest(t, "", cfg, plan, ranks)
		return digest, w.Net.FaultStats(), relTotals(w)
	}
	d1, f1, r1 := run()
	d2, f2, r2 := run()
	if d1 != d2 {
		t.Errorf("digest diverged: %#x vs %#x", d1, d2)
	}
	if f1 != f2 {
		t.Errorf("fault stats diverged: %+v vs %+v", f1, f2)
	}
	if r1 != r2 {
		t.Errorf("reliability stats diverged: %+v vs %+v", r1, r2)
	}
}

// TestChaosRNRBackpressure forces the graceful-degradation path
// deterministically: a sender bursts eager messages at a receiver that
// posts no receives for a long while, with a tightly bounded unexpected
// queue. The old behaviour was unbounded queue growth; now the receiver
// must refuse admission with RNR NACKs and the sender must back off and
// recover every message once the receives appear.
func TestChaosRNRBackpressure(t *testing.T) {
	const burst = 24
	cfg := baseCfg(2)
	cfg.NIC.Reliable = true
	cfg.NIC.MaxUnexpected = 4
	cfg.NIC.RxQDepth = 8
	cfg.WatchdogLimit = chaosWatchdog
	progs := []Program{
		func(r *Rank) {
			for i := 0; i < burst; i++ {
				r.Wait(r.Isend(1, i, 64))
			}
		},
		func(r *Rank) {
			// Let the burst pile up against the bounded queue first.
			r.Compute(200 * sim.Microsecond)
			for i := 0; i < burst; i++ {
				r.Recv(0, i, 64)
			}
		},
	}
	w := RunPrograms(cfg, progs)
	rel := relTotals(w)
	if rel.RNRSent == 0 {
		t.Errorf("bounded unexpected queue never refused admission (RNRSent=0); rel=%+v", rel)
	}
	if rel.Retransmits == 0 {
		t.Errorf("RNR backpressure without recovery retransmits; rel=%+v", rel)
	}
	if got := w.NICs[1].UnexpLen(); got != 0 {
		t.Errorf("unexpected queue not drained: %d", got)
	}
	if p := relTotals(w); p.DataSent == 0 {
		t.Errorf("no sequenced traffic recorded: %+v", p)
	}
}

// TestChaosWatchdogCatchesStall wires a world that can never finish — a
// rank waits for a message nobody sends, with a pending reliability
// retransmit keeping the event loop alive — and requires the watchdog to
// convert the livelock into a *sim.WatchdogError instead of spinning.
// Serial and partitioned worlds take the same route: the expiry surfaces
// from RunPrograms unwrapped, its dump carries the engine state and the
// fault diagnostics, and the flight recorder lands on disk as JSON.
func TestChaosWatchdogCatchesStall(t *testing.T) {
	for _, parts := range []int{0, 2} {
		t.Run(fmt.Sprintf("par%d", parts), func(t *testing.T) {
			cfg := baseCfg(2)
			cfg.Partitions = parts
			cfg.Faults = &network.FaultModel{Seed: 1, DropProb: 1.0} // every packet lost
			cfg.WatchdogLimit = 2 * sim.Millisecond
			cfg.FlightDumpPath = filepath.Join(t.TempDir(), "flight.json")
			werr := func() (werr *sim.WatchdogError) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("expected a watchdog panic, got clean completion")
					}
					var ok bool
					if werr, ok = r.(*sim.WatchdogError); !ok {
						t.Fatalf("expected an unwrapped *sim.WatchdogError, got %T: %v", r, r)
					}
				}()
				RunPrograms(cfg, []Program{
					func(r *Rank) { r.Send(1, 7, 64) },
					func(r *Rank) { r.Recv(0, 7, 64) },
				})
				return nil
			}()
			for _, want := range []string{"engine: now=", "\nfaults: "} {
				if !strings.Contains(werr.Dump, want) {
					t.Errorf("watchdog dump lacks %q:\n%s", want, werr.Dump)
				}
			}
			data, err := os.ReadFile(cfg.FlightDumpPath)
			if err != nil {
				t.Fatalf("flight dump not written: %v", err)
			}
			if !json.Valid(data) {
				t.Errorf("flight dump is not valid JSON (%d bytes)", len(data))
			}
		})
	}
}
