package bench

import (
	"strings"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
)

// renderChaosString runs the chaos matrix at one partition count and
// renders the report.
func renderChaosString(t *testing.T, parts int) string {
	t.Helper()
	var sb strings.Builder
	RenderChaos(&sb, RunChaos(ChaosConfig{
		NIC:      nic.Config{UseALPU: true, Cells: 64},
		QueueLen: 30,
		MsgSize:  512,
		Plan: Plan{
			Seed:   42,
			Faults: &network.FaultModel{DropProb: 0.01, DupProb: 0.01, ReorderProb: 0.01, CorruptProb: 0.01},
			World:  mpi.Config{Partitions: parts},
		},
	}))
	return sb.String()
}

// TestChaosReportPartitionsInvariant pins the experiment-level guarantee
// the CI determinism job relies on: the rendered chaos report is
// byte-identical at -par 1 and -par 2 (each cell world has two ranks, so
// two partitions is full spread).
func TestChaosReportPartitionsInvariant(t *testing.T) {
	ref := renderChaosString(t, 1)
	if got := renderChaosString(t, 2); got != ref {
		t.Errorf("chaos report diverged between par1 and par2:\n--- par1\n%s\n--- par2\n%s", ref, got)
	}
	if !strings.Contains(ref, "custom") {
		t.Fatalf("chaos report missing the fault mix row:\n%s", ref)
	}
}

// TestPartitionsInvariant checks the application studies end to end: a halo
// exchange and an unexpected storm produce identical reports and
// telemetry at every partition count.
func TestPartitionsInvariant(t *testing.T) {
	cases := map[string]func(parts int) Report{
		"halo": func(parts int) Report {
			return Halo(mpi.Config{Ranks: 12, NIC: nic.Config{UseALPU: true, Cells: 64}, Partitions: parts}, 4, 1024, 2)
		},
		"storm": func(parts int) Report {
			return UnexpectedStorm(mpi.Config{Ranks: 8, Partitions: parts}, 6, 256)
		},
	}
	for name, make := range cases {
		t.Run(name, func(t *testing.T) {
			ref := make(1)
			refTable := ref.Telemetry.Table()
			for _, parts := range []int{2, 4} {
				rep := make(parts)
				if rep.String() != ref.String() {
					t.Errorf("par%d report diverged:\npar1: %s\npar%d: %s", parts, ref, parts, rep)
				}
				if rep.Elapsed != ref.Elapsed {
					t.Errorf("par%d elapsed %v != par1 %v", parts, rep.Elapsed, ref.Elapsed)
				}
				if got := rep.Telemetry.Table(); got != refTable {
					t.Errorf("par%d telemetry diverged from par1", parts)
				}
			}
		})
	}
}
