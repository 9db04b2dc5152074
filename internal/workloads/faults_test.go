package workloads

import (
	"fmt"
	"sort"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
)

// receivedDigest fingerprints each rank's receive outcomes as a sorted
// multiset: wildcard receives may legally pair with senders in any
// arrival order, so the order within a rank is not part of the outcome,
// but every message must land exactly once at its destination in its
// round.
func receivedDigest(rep Report) []string {
	out := make([]string, len(rep.Received))
	for rank, sts := range rep.Received {
		sorted := append([]mpi.Status(nil), sts...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := sorted[i], sorted[j]
			if a.Tag != b.Tag {
				return a.Tag < b.Tag
			}
			if a.Source != b.Source {
				return a.Source < b.Source
			}
			return a.Size < b.Size
		})
		out[rank] = fmt.Sprint(sorted)
	}
	return out
}

// TestIrregularPurgeRaceMatchesSoftwareList runs queuestudy's irregular
// study where headers bunch up around ALPU insert episodes: one header
// fails before an episode while a later one, matched during the episode,
// consumes the freshly loaded entry the earlier header needs (§IV-C). The
// 16-rank run over the combined 0.02 wire-fault mix on a 128-cell ALPU
// gets there through retransmissions; the 4-rank run on a 4-shard fabric
// gets there fault-free. The matching outcome must equal the fault-free
// software-list run.
func TestIrregularPurgeRaceMatchesSoftwareList(t *testing.T) {
	fm, err := network.ParseFaults("0.02", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  mpi.Config
	}{
		{"alpu-faults", mpi.Config{Ranks: 16, NIC: ac, Faults: fm, WatchdogLimit: 500 * sim.Millisecond}},
		{"fabric-4", world(nic.Config{UseALPU: true, Cells: 128, MatchShards: 4}, 4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := Irregular(world(base, c.cfg.Ranks), 4, 3, 128, 7)
			got := Irregular(c.cfg, 4, 3, 128, 7)
			want, have := receivedDigest(ref), receivedDigest(got)
			if len(want) != c.cfg.Ranks || len(have) != c.cfg.Ranks {
				t.Fatalf("received %d/%d ranks, want %d", len(want), len(have), c.cfg.Ranks)
			}
			for rank := range want {
				if want[rank] == "[]" {
					t.Errorf("rank %d received nothing in the reference run", rank)
				}
				if have[rank] != want[rank] {
					t.Errorf("rank %d outcome diverged:\nsoftware list: %s\n%s: %s", rank, want[rank], c.name, have[rank])
				}
			}
		})
	}
}
