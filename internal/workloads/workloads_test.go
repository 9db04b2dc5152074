package workloads

import (
	"strings"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/nic"
)

var (
	base = nic.Config{}
	ac   = nic.Config{UseALPU: true, Cells: 128}
)

// world configures a clean world of n ranks on nc.
func world(nc nic.Config, n int) mpi.Config { return mpi.Config{Ranks: n, NIC: nc} }

func TestHaloShortQueues(t *testing.T) {
	rep := Halo(world(base, 8), 10, 1024, 5)
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
	b := Halo(world(base, 4), 8, 512, 4)
	a := Halo(world(ac, 4), 8, 512, 4)
	// Short queues: the ALPU must not help much, and must not hurt more
	// than its small per-message interface cost.
	ratio := float64(a.Elapsed) / float64(b.Elapsed)
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("halo ALPU/baseline elapsed ratio = %.3f, expected ~1", ratio)
	}
}

func TestMasterWorkerQueueScalesWithRanks(t *testing.T) {
	small := MasterWorker(world(base, 5), 4, 256, 2)  // 4 workers
	large := MasterWorker(world(base, 17), 4, 256, 2) // 16 workers
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
	b := MasterWorker(world(base, 25), 3, 64, 3) // 24 workers x window 3 = 72 entries
	a := MasterWorker(world(ac, 25), 3, 64, 3)
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
	rep := UnexpectedStorm(world(base, 5), 30, 0) // 4 senders x 30 = 120 unexpected
	if rep.PeakUnexp < 100 {
		t.Errorf("peak unexpected queue = %d, want ~120", rep.PeakUnexp)
	}
	if rep.UnexpDepths.N() == 0 {
		t.Error("no unexpected match depths recorded")
	}
}

func TestUnexpectedStormALPUHelps(t *testing.T) {
	b := UnexpectedStorm(world(base, 5), 40, 0)
	a := UnexpectedStorm(world(ac, 5), 40, 0)
	if a.Elapsed >= b.Elapsed {
		t.Errorf("ALPU did not help the storm: %v vs baseline %v", a.Elapsed, b.Elapsed)
	}
}

func TestSweepRuns(t *testing.T) {
	rep := Sweep(world(base, 6), 3, 256)
	if rep.Elapsed <= 0 || rep.PostedDepths.N() == 0 {
		t.Fatalf("sweep report empty: %+v", rep)
	}
}

func TestIrregularDeterministicPerSeed(t *testing.T) {
	a := Irregular(world(base, 6), 3, 2, 128, 42)
	b := Irregular(world(base, 6), 3, 2, 128, 42)
	if a.Elapsed != b.Elapsed {
		t.Errorf("same seed, different elapsed: %v vs %v", a.Elapsed, b.Elapsed)
	}
	c := Irregular(world(base, 6), 3, 2, 128, 43)
	if c.Elapsed == a.Elapsed {
		t.Log("different seeds coincided (allowed but unlikely)")
	}
	if a.UnexpDepths.N()+a.PostedDepths.N() == 0 {
		t.Error("irregular recorded no matches")
	}
}

func TestReportString(t *testing.T) {
	rep := Halo(world(base, 2), 2, 64, 2)
	s := rep.String()
	for _, frag := range []string{"halo-1d", "ranks=2", "peakPosted"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Report.String missing %q: %s", frag, s)
		}
	}
}
