package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
)

var (
	swNIC   = nic.Config{}
	alpuNIC = nic.Config{UseALPU: true, Cells: 128}
)

// studyWorld configures a clean world of n ranks on nc.
func studyWorld(nc nic.Config, n int) mpi.Config { return mpi.Config{Ranks: n, NIC: nc} }

func TestHaloShortQueues(t *testing.T) {
	rep := Halo(studyWorld(swNIC, 8), 10, 1024, 5)
	if rep.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	// Nearest-neighbour codes keep queues short (§I: the regime where
	// offload NICs are fine without an ALPU).
	if rep.PeakPosted > 16 {
		t.Errorf("halo peak posted queue = %d, expected short", rep.PeakPosted)
	}
	if rep.PostedDepths.Percentile(0.99) > 16 {
		t.Errorf("halo p99 match depth = %d, expected shallow", rep.PostedDepths.Percentile(0.99))
	}
}

func TestHaloALPUNearNeutral(t *testing.T) {
	b := Halo(studyWorld(swNIC, 4), 8, 512, 4)
	a := Halo(studyWorld(alpuNIC, 4), 8, 512, 4)
	// Short queues: the ALPU must not help much, and must not hurt more
	// than its small per-message interface cost.
	ratio := float64(a.Elapsed) / float64(b.Elapsed)
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("halo ALPU/baseline elapsed ratio = %.3f, expected ~1", ratio)
	}
}

func TestMasterWorkerQueueScalesWithRanks(t *testing.T) {
	small := MasterWorker(studyWorld(swNIC, 5), 4, 256, 2)  // 4 workers
	large := MasterWorker(studyWorld(swNIC, 17), 4, 256, 2) // 16 workers
	if small.PeakPosted >= large.PeakPosted {
		t.Errorf("posted queue did not grow with workers: %d (4w) vs %d (16w)",
			small.PeakPosted, large.PeakPosted)
	}
	// The refs [8]/[9] scaling: peak ~ workers * window.
	if large.PeakPosted < 16 {
		t.Errorf("16-worker peak posted = %d, want >= 16", large.PeakPosted)
	}
	if large.PostedDepths.N() == 0 {
		t.Error("no match depths recorded")
	}
}

func TestMasterWorkerALPUHelps(t *testing.T) {
	// Enough workers that the master's queue makes traversal visible.
	b := MasterWorker(studyWorld(swNIC, 25), 3, 64, 3) // 24 workers x window 3 = 72 entries
	a := MasterWorker(studyWorld(alpuNIC, 25), 3, 64, 3)
	if a.ALPUHits == 0 {
		t.Fatal("ALPU never hit in the master-worker pattern")
	}
	if a.Elapsed >= b.Elapsed {
		t.Errorf("ALPU did not help master-worker: %v vs baseline %v", a.Elapsed, b.Elapsed)
	}
	// Software traversal work collapses with the ALPU.
	if a.EntriesTraversed*2 > b.EntriesTraversed {
		t.Errorf("traversals: alpu %d vs baseline %d, expected >2x reduction",
			a.EntriesTraversed, b.EntriesTraversed)
	}
}

func TestUnexpectedStormBuildsDeepQueue(t *testing.T) {
	rep := UnexpectedStorm(studyWorld(swNIC, 5), 30, 0) // 4 senders x 30 = 120 unexpected
	if rep.PeakUnexp < 100 {
		t.Errorf("peak unexpected queue = %d, want ~120", rep.PeakUnexp)
	}
	if rep.UnexpDepths.N() == 0 {
		t.Error("no unexpected match depths recorded")
	}
}

func TestUnexpectedStormALPUHelps(t *testing.T) {
	b := UnexpectedStorm(studyWorld(swNIC, 5), 40, 0)
	a := UnexpectedStorm(studyWorld(alpuNIC, 5), 40, 0)
	if a.Elapsed >= b.Elapsed {
		t.Errorf("ALPU did not help the storm: %v vs baseline %v", a.Elapsed, b.Elapsed)
	}
}

func TestSweepRuns(t *testing.T) {
	rep := Sweep(studyWorld(swNIC, 6), 3, 256)
	if rep.Elapsed <= 0 || rep.PostedDepths.N() == 0 {
		t.Fatalf("sweep report empty: %+v", rep)
	}
}

func TestIrregularDeterministicPerSeed(t *testing.T) {
	a := Irregular(studyWorld(swNIC, 6), 3, 2, 128, 42)
	b := Irregular(studyWorld(swNIC, 6), 3, 2, 128, 42)
	if a.Elapsed != b.Elapsed {
		t.Errorf("same seed, different elapsed: %v vs %v", a.Elapsed, b.Elapsed)
	}
	c := Irregular(studyWorld(swNIC, 6), 3, 2, 128, 43)
	if c.Elapsed == a.Elapsed {
		t.Log("different seeds coincided (allowed but unlikely)")
	}
	if a.UnexpDepths.N()+a.PostedDepths.N() == 0 {
		t.Error("irregular recorded no matches")
	}
}

func TestReportString(t *testing.T) {
	rep := Halo(studyWorld(swNIC, 2), 2, 64, 2)
	s := rep.String()
	for _, frag := range []string{"halo-1d", "ranks=2", "peakPosted"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Report.String missing %q: %s", frag, s)
		}
	}
}

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
		{"alpu-faults", mpi.Config{Ranks: 16, NIC: alpuNIC, Faults: fm, WatchdogLimit: 500 * sim.Millisecond}},
		{"fabric-4", studyWorld(nic.Config{UseALPU: true, Cells: 128, MatchShards: 4}, 4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := Irregular(studyWorld(swNIC, c.cfg.Ranks), 4, 3, 128, 7)
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
