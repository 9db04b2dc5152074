package bench

import (
	"io"
	"sync/atomic"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
)

// TestEveryWorldReachesObserver runs each harness with a counting
// WorldObserver installed: every world an experiment or study builds
// must reach it, so -serve publishes the telemetry of every run.
func TestEveryWorldReachesObserver(t *testing.T) {
	plan := Plan{Jobs: 2, Seed: 3}
	faulty := plan
	faulty.Faults = &network.FaultModel{DropProb: 0.01}
	grid := CellGrid{Kinds: []NICKind{Baseline}, QueueLens: []int{0, 8}, Plan: plan}
	alpu := nic.Config{UseALPU: true, Cells: 64}
	for _, c := range []struct {
		name   string
		worlds int
		run    func()
	}{
		// q=0 aliases both fractions to one cell; q=10 gives two.
		{"preposted", 3, func() {
			RunPreposted(PrepostedConfig{QueueLens: []int{0, 10}, Fracs: []float64{0, 1}, Plan: plan})
		}},
		{"unexpected", 3, func() {
			RunUnexpected(UnexpectedConfig{NIC: alpu, QueueLens: []int{0, 5, 10}, Plan: plan})
		}},
		{"gap", 2, func() { RunGap(GapConfig{Depths: []int{0, 4}, Burst: 4, Plan: plan}) }},
		// Both workloads, clean and under the one custom mix.
		{"chaos", 2 * 2, func() { RunChaos(ChaosConfig{QueueLen: 8, MsgSize: 64, Plan: faulty}) }},
		// The clean software-only reference and every scenario.
		{"devchaos", 1 + len(DefaultDevChaosScenarios()), func() {
			RunDevChaos(DevChaosConfig{Msgs: 16, Plan: plan})
		}},
		{"phases", 2, func() { RunPhases(PhasesConfig{CellGrid: grid}) }},
		{"critpath", 2, func() { RunCritPath(CritPathConfig{CellGrid: grid}) }},
		// The software list, the single ALPU and each fabric width.
		{"tenancy", 2 + 2, func() {
			RunTenancy(TenancyBenchConfig{Ranks: 4, Comms: 2, Msgs: 32, Shards: []int{2, 4}, Plan: plan})
		}},
		{"tenancy-outcomes", 1, func() {
			WriteTenancyOutcomes(io.Discard, TenancyBenchConfig{Ranks: 4, Comms: 2, Msgs: 32, Plan: plan}, 2)
		}},
		{"halo", 1, func() { Halo(studyWorld(alpu, 4), 2, 64, 1) }},
		{"master-worker", 1, func() { MasterWorker(studyWorld(alpu, 4), 2, 64, 2) }},
		{"unexpected-storm", 1, func() { UnexpectedStorm(studyWorld(alpu, 4), 4, 64) }},
		{"sweep", 1, func() { Sweep(studyWorld(alpu, 4), 1, 64) }},
		{"irregular", 1, func() { Irregular(studyWorld(alpu, 4), 2, 2, 64, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var worlds atomic.Int32
			WorldObserver = func(*mpi.World) { worlds.Add(1) }
			defer func() { WorldObserver = nil }()
			c.run()
			if got := int(worlds.Load()); got != c.worlds {
				t.Errorf("observer saw %d worlds, want %d", got, c.worlds)
			}
		})
	}
}
