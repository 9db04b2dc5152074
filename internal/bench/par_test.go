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
