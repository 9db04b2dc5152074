package bench

import (
	"fmt"
	"io"
	"math/rand"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/sweep"
)

// The device-chaos campaign: a random many-to-many soak over N-rank ALPU
// worlds whose devices corrupt cells, drop results, stall, die outright,
// or whose firmware crashes — each scenario digest-verified against a
// clean software-only run of the identical traffic plan. A scenario
// passes only if the matching outcome (which sender and tag every posted
// receive resolved to, and its size) is byte-identical to the clean
// reference: device faults may cost time, never correctness.

// DevChaosScenario is one named cell of the campaign matrix.
type DevChaosScenario struct {
	Name   string
	Faults network.FaultModel // Seed is overridden per run
}

// DefaultDevChaosScenarios is the campaign matrix: each device-fault
// class alone, a wire-fault rider, then the meltdown mix.
func DefaultDevChaosScenarios() []DevChaosScenario {
	return []DevChaosScenario{
		{"bitflip-storm", network.FaultModel{ALPUBitFlipProb: 0.02}},
		{"result-drops", network.FaultModel{ALPUResultDropProb: 0.05}},
		{"stuck-cycles", network.FaultModel{ALPUStuckProb: 0.1}},
		{"alpu-death", network.FaultModel{ALPUDeathAt: 30 * sim.Microsecond}},
		{"fw-crash-loop", network.FaultModel{FwCrashProb: 0.02}},
		{"link-flap", network.FaultModel{LinkFlapFrac: 0.05}},
		{"meltdown", network.FaultModel{
			DropProb: 0.01, DupProb: 0.01, LinkFlapFrac: 0.02,
			ALPUBitFlipProb: 0.01, ALPUResultDropProb: 0.02,
			ALPUDeathAt: 50 * sim.Microsecond, FwCrashProb: 0.005,
		}},
	}
}

// DevChaosConfig parameterises the campaign.
type DevChaosConfig struct {
	NIC nic.Config // the ALPU NIC under test (UseALPU is forced on)
	// Ranks / Msgs shape the soak plan (0 = 4 ranks / 64 messages).
	Ranks int
	Msgs  int
	// Plan seeds the traffic plan and every scenario; Plan.Faults, when
	// set, replaces DefaultDevChaosScenarios with the single scenario
	// "custom". The report is byte-identical at any
	// Plan.World.Partitions >= 1.
	Plan
}

// DevChaosResult is one scenario row of the campaign report.
type DevChaosResult struct {
	Scenario string
	Digest   uint64
	Match    bool // digest equals the clean software-only reference
	Latency  sim.Time

	// Device-side injection counters (alpu_faults rollup).
	BitFlips, Quarantines, DroppedResults, StuckCycles, DeadDiscards uint64
	// Firmware-side recovery counters (nic_failover rollup).
	Strikes, Resyncs, Deaths, ShadowRebuilds, FwCrashes, FwRestarts uint64
}

// devChaosPlan is the deterministic many-to-many traffic plan: unique
// tags keep the matching unambiguous, so every configuration must produce
// the same pairing; a third of the receives are wildcards.
type devChaosOp struct {
	src, dst, tag, size int
	wildcard            bool
}

func devChaosPlan(seed int64, ranks, msgs int) []devChaosOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]devChaosOp, msgs)
	for i := range ops {
		src := rng.Intn(ranks)
		dst := rng.Intn(ranks)
		for dst == src {
			dst = rng.Intn(ranks)
		}
		ops[i] = devChaosOp{
			src: src, dst: dst, tag: i,
			size:     []int{0, 64, 1024, 8192}[rng.Intn(4)],
			wildcard: rng.Intn(3) == 0,
		}
	}
	return ops
}

// runDevChaosWorld drives the plan through one world and folds every
// receive's matching outcome into a digest, rank by rank in plan order —
// deliberately independent of completion timing, which faults are
// allowed to change.
func runDevChaosWorld(cfg mpi.Config, plan []devChaosOp) (uint64, sim.Time, *mpi.World) {
	ranks := cfg.Ranks
	statuses := make([][]mpi.Status, ranks)
	progs := make([]mpi.Program, ranks)
	for rank := 0; rank < ranks; rank++ {
		progs[rank] = func(r *mpi.Rank) {
			var reqs []*mpi.Request
			for _, op := range plan {
				if op.dst != rank {
					continue
				}
				src := op.src
				if op.wildcard {
					src = mpi.AnySource
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
	w, end := runWorld(cfg, progs)
	h := newFNV()
	for rank, sts := range statuses {
		for i, st := range sts {
			h.add(uint64(rank), uint64(i), uint64(int64(st.Source)), uint64(int64(st.Tag)), uint64(int64(st.Size)))
		}
	}
	return uint64(h), end, w
}

// fnv1a is an FNV-1a hash over 64-bit words, fed low byte first: the
// outcome digest of the devchaos and tenancy harnesses.
type fnv1a uint64

func newFNV() fnv1a { return 0xcbf29ce484222325 }

func (h *fnv1a) add(words ...uint64) {
	for _, v := range words {
		for i := 0; i < 8; i++ {
			*h ^= fnv1a((v >> (8 * i)) & 0xff)
			*h *= 0x100000001b3
		}
	}
}

// RunDevChaos runs the clean software-only reference, then every scenario
// over the identical plan, verifying each digest against the reference.
// Cells run on cfg.Jobs parallel worlds but the result order (and every
// byte of the report) is deterministic regardless.
func RunDevChaos(cfg DevChaosConfig) []DevChaosResult {
	if cfg.Ranks <= 0 {
		cfg.Ranks = 4
	}
	if cfg.Msgs <= 0 {
		cfg.Msgs = 64
	}
	scenarios := DefaultDevChaosScenarios()
	if cfg.Faults != nil {
		scenarios = []DevChaosScenario{{Name: "custom", Faults: *cfg.Faults}}
	}
	plan := devChaosPlan(cfg.Seed, cfg.Ranks, cfg.Msgs)
	world := cfg.WorldConfig(cfg.Ranks, nic.Config{})
	world.WatchdogLimit = chaosWatchdogLimit
	clean, _, _ := runDevChaosWorld(world, plan)
	results := sweep.Map(cfg.Jobs, len(scenarios), func(i int) DevChaosResult {
		s := scenarios[i]
		fm := s.Faults
		fm.Seed = cfg.Seed
		nc := cfg.NIC
		nc.UseALPU = true
		if nc.Cells <= 0 {
			nc.Cells = 64
		}
		// Tight recovery policy: these soaks drain in a few hundred
		// simulated microseconds, so the default 10µs-doubling timeouts
		// would let a dying device coast to the end of the run without
		// ever striking out.
		if nc.FaultResultTimeout == 0 {
			nc.FaultResultTimeout = 1 * sim.Microsecond
		}
		if nc.FaultRetryBase == 0 {
			nc.FaultRetryBase = 4 * sim.Microsecond
		}
		cell := world
		cell.NIC, cell.Faults = nc, &fm
		digest, lat, w := runDevChaosWorld(cell, plan)
		snap := w.TelemetrySnapshot()
		return DevChaosResult{
			Scenario: s.Name, Digest: digest, Match: digest == clean, Latency: lat,
			BitFlips:       snap.Sum("alpu_faults/bit_flips"),
			Quarantines:    snap.Sum("alpu_faults/parity_quarantines"),
			DroppedResults: snap.Sum("alpu_faults/dropped_results"),
			StuckCycles:    snap.Sum("alpu_faults/stuck_cycles"),
			DeadDiscards:   snap.Sum("alpu_faults/dead_discards"),
			Strikes:        snap.Sum("nic_failover/strikes"),
			Resyncs:        snap.Sum("nic_failover/resyncs"),
			Deaths:         snap.Sum("nic_failover/deaths"),
			ShadowRebuilds: snap.Sum("nic_failover/shadow_rebuilds"),
			FwCrashes:      snap.Sum("nic_failover/fw_crashes"),
			FwRestarts:     snap.Sum("nic_failover/fw_restarts"),
		}
	})
	return results
}

// RenderDevChaos writes the campaign report as an aligned table. Output
// is a pure function of the config and seed, so two runs with the same
// seed diff empty at any partition count (alpusim's goldens pin it).
func RenderDevChaos(out io.Writer, results []DevChaosResult) {
	tb := stats.NewTable("scenario", "verdict", "digest", "latency",
		"flips/quar", "drops", "stuck", "dead-disc",
		"strikes", "resyncs", "deaths/rebuilds", "fwcrash/restart")
	for _, r := range results {
		verdict := "MATCH"
		if !r.Match {
			verdict = "DIVERGED"
		}
		tb.AddRow(
			r.Scenario, verdict, fmt.Sprintf("%016x", r.Digest), r.Latency.String(),
			fmt.Sprintf("%d/%d", r.BitFlips, r.Quarantines),
			r.DroppedResults, r.StuckCycles, r.DeadDiscards,
			r.Strikes, r.Resyncs,
			fmt.Sprintf("%d/%d", r.Deaths, r.ShadowRebuilds),
			fmt.Sprintf("%d/%d", r.FwCrashes, r.FwRestarts),
		)
	}
	tb.Render(out)
}
