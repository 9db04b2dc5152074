package mpi

import (
	"math/rand"
	"testing"

	"alpusim/internal/network"
	"alpusim/internal/sim"
)

// The device chaos soak: the random-traffic soak plan over NICs whose
// ALPUs corrupt cells, drop results, stall, die outright, or whose
// firmware crashes — with the wire kept clean or faulty per mix. The
// invariant mirrors chaos_test.go and is the ISSUE acceptance: the
// matching outcome must be byte-identical to a clean run on a healthy
// software-only NIC. Device faults may cost time, never correctness.

// devChaosMixes is the device-fault matrix: each class alone, then the
// meltdown mix that also stresses the wire.
func devChaosMixes() map[string]network.FaultModel {
	return map[string]network.FaultModel{
		"bitflip-storm": {ALPUBitFlipProb: 0.02},
		"result-drops":  {ALPUResultDropProb: 0.05},
		"stuck-cycles":  {ALPUStuckProb: 0.1},
		"alpu-death":    {ALPUDeathAt: 30 * sim.Microsecond},
		"fw-crash-loop": {FwCrashProb: 0.02},
		"meltdown": {
			DropProb: 0.01, DupProb: 0.01, LinkFlapFrac: 0.02,
			ALPUBitFlipProb: 0.01, ALPUResultDropProb: 0.02,
			ALPUDeathAt: 50 * sim.Microsecond, FwCrashProb: 0.005,
		},
	}
}

// devChaosCfg is alpuCfg plus an aggressive recovery policy: these soak
// plans drain in a few hundred simulated microseconds, so the default
// 10µs-doubling response timeouts would let a dead device coast to the
// end of the run without ever striking out. Tight timeouts exercise the
// full strike → resync → failover ladder without changing its semantics.
func devChaosCfg(ranks, cells int) Config {
	cfg := alpuCfg(ranks, cells)
	cfg.NIC.FaultResultTimeout = 1 * sim.Microsecond
	cfg.NIC.FaultRetryBase = 4 * sim.Microsecond
	return cfg
}

// TestDevChaosMatchesSoftwareClean kills, corrupts and crashes the device
// layer mid-soak and requires the matching digest to equal the clean
// software-only baseline — zero lost, duplicated, or misordered matches
// across resyncs, hot failover, and firmware restarts.
func TestDevChaosMatchesSoftwareClean(t *testing.T) {
	const ranks = 4
	msgs := 48
	if testing.Short() {
		msgs = 24
	}
	plan := buildSoakPlan(rand.New(rand.NewSource(17)), ranks, msgs)
	clean, _ := soakMatchDigest(t, "software/clean", baseCfg(ranks), plan, ranks)
	cleanALPU, _ := soakMatchDigest(t, "alpu/clean", alpuCfg(ranks, 64), plan, ranks)
	if cleanALPU != clean {
		t.Fatalf("healthy ALPU digest %#x != software digest %#x", cleanALPU, clean)
	}
	for mixName, fm := range devChaosMixes() {
		fm := fm
		fm.Seed = 42
		cfg := devChaosCfg(ranks, 64)
		cfg.Faults = &fm
		cfg.WatchdogLimit = chaosWatchdog
		got, w := soakMatchDigest(t, "dev/"+mixName, cfg, plan, ranks)
		if got != clean {
			t.Errorf("%s: matching digest %#x != clean software %#x", mixName, got, clean)
		}
		snap := w.TelemetrySnapshot()
		injected := snap.Sum("alpu_faults/bit_flips") + snap.Sum("alpu_faults/dropped_results") +
			snap.Sum("alpu_faults/stuck_cycles") + snap.Sum("alpu_faults/dead_discards") +
			snap.Sum("nic_failover/fw_crashes")
		switch mixName {
		case "alpu-death", "meltdown":
			deaths := 0
			for i := range w.NICs {
				if w.NICs[i].ALPUDead("posted") || w.NICs[i].ALPUDead("unexp") {
					deaths++
				}
			}
			if deaths == 0 {
				t.Errorf("%s: no unit was ever declared dead", mixName)
			}
			if snap.Sum("nic_failover/deaths") == 0 || snap.Sum("nic_failover/shadow_rebuilds") == 0 {
				t.Errorf("%s: failover counters idle", mixName)
			}
		case "fw-crash-loop":
			// Firmware crashes alone, with no ALPU fault class, must arm
			// the recovery and publish the world-level failover rollups.
			if crashes := snap.Sum("nic_failover/fw_crashes"); crashes == 0 || crashes != snap.Sum("nic_failover/fw_restarts") {
				t.Errorf("%s: world rollup fw_crashes=%d fw_restarts=%d, want equal and non-zero",
					mixName, crashes, snap.Sum("nic_failover/fw_restarts"))
			}
		default:
			if injected == 0 {
				t.Errorf("%s: fault injection idle", mixName)
			}
		}
	}
}

// TestDevChaosPartitionInvariant pins the PDES contract under device
// faults: the same seed must produce a byte-identical matching digest and
// identical fault/recovery telemetry at every partition count.
func TestDevChaosPartitionInvariant(t *testing.T) {
	const ranks = 8
	plan := buildSoakPlan(rand.New(rand.NewSource(23)), ranks, 48)
	type result struct {
		digest uint64
		rollup [6]uint64
	}
	run := func(parts int) result {
		cfg := devChaosCfg(ranks, 64)
		// 48 messages over 8 ranks is thin per NIC; a 3-strike policy makes
		// the death declaration land inside the run at every partitioning.
		cfg.NIC.FaultStrikeLimit = 3
		cfg.Partitions = parts
		cfg.Faults = &network.FaultModel{
			Seed:            7,
			ALPUBitFlipProb: 0.01, ALPUResultDropProb: 0.02,
			ALPUDeathAt: 40 * sim.Microsecond, FwCrashProb: 0.005,
		}
		cfg.WatchdogLimit = chaosWatchdog
		digest, w := soakMatchDigest(t, "", cfg, plan, ranks)
		snap := w.TelemetrySnapshot()
		return result{digest, [6]uint64{
			snap.Sum("alpu_faults/bit_flips"),
			snap.Sum("alpu_faults/dropped_results"),
			snap.Sum("nic_failover/strikes"),
			snap.Sum("nic_failover/resyncs"),
			snap.Sum("nic_failover/deaths"),
			snap.Sum("nic_failover/fw_crashes"),
		}}
	}
	r1 := run(1)
	for _, parts := range []int{2, 8} {
		if r := run(parts); r != r1 {
			t.Errorf("partitions=%d diverged from partitions=1:\n %+v\n %+v", parts, r, r1)
		}
	}
	if r1.rollup[0] == 0 || r1.rollup[4] == 0 {
		t.Errorf("scenario injected too little to be meaningful: %+v", r1)
	}
}

// TestHashFallbackMatchesHealthyALPU is the satellite property test: over
// randomized post/arrival interleavings (wildcards, eager and rendezvous
// sizes), the software hash-list organisation — the structure failover
// rebuilds into — must produce the exact per-receive match sequence of a
// healthy ALPU, and so must an ALPU whose device dies at t=0 (pure
// fallback path end to end).
func TestHashFallbackMatchesHealthyALPU(t *testing.T) {
	const ranks = 4
	seeds := []int64{3, 7, 13, 29, 41}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		plan := buildSoakPlan(rand.New(rand.NewSource(seed)), ranks, 40)
		healthy, _ := soakMatchDigest(t, "healthy", alpuCfg(ranks, 64), plan, ranks)

		hashCfg := baseCfg(ranks)
		hashCfg.NIC.UseHashList = true
		hashed, _ := soakMatchDigest(t, "hash", hashCfg, plan, ranks)
		if hashed != healthy {
			t.Errorf("seed %d: hash-list digest %#x != healthy ALPU %#x", seed, hashed, healthy)
		}

		deadCfg := devChaosCfg(ranks, 64)
		deadCfg.Faults = &network.FaultModel{Seed: 1, ALPUDeathAt: 1 * sim.Nanosecond}
		deadCfg.WatchdogLimit = chaosWatchdog
		dead, w := soakMatchDigest(t, "dead-at-0", deadCfg, plan, ranks)
		if dead != healthy {
			t.Errorf("seed %d: dead-device fallback digest %#x != healthy ALPU %#x", seed, dead, healthy)
		}
		failed := false
		for i := range w.NICs {
			if w.NICs[i].ALPUDead("posted") || w.NICs[i].ALPUDead("unexp") {
				failed = true
			}
		}
		if !failed {
			t.Errorf("seed %d: device dead from t=0 but no failover happened", seed)
		}
	}
}
