package workloads

import (
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/nic"
)

// TestPartitionsInvariant checks the workload layer end to end: a halo
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
