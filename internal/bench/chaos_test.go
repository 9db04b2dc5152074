package bench

import (
	"strings"
	"testing"
)

// TestRunChaosRecoversEveryMix: both figure workloads must finish under
// every fault mix (completion is the matching-correctness check — every
// probe must match its intended receive for the programs to drain), with
// the reliability machinery visibly engaged and zero unrecovered errors
// surfacing as panics.
func TestRunChaosRecoversEveryMix(t *testing.T) {
	results := RunChaos(ChaosConfig{NIC: NICConfig(ALPU128), QueueLen: 30, Plan: Plan{Seed: 17}})
	if len(results) != 12 { // 2 workloads x (clean + 5 mixes)
		t.Fatalf("got %d results, want 12", len(results))
	}
	for _, r := range results {
		if r.Mix == "clean" {
			if r.Faults.Total() != 0 || r.Rel.Retransmits != 0 {
				t.Errorf("%s/clean: faults or retransmits in the fault-free reference: %+v %+v",
					r.Workload, r.Faults, r.Rel)
			}
			continue
		}
		if r.Faults.Total() == 0 {
			t.Errorf("%s/%s: fault model injected nothing", r.Workload, r.Mix)
		}
		if r.Latency <= 0 {
			t.Errorf("%s/%s: nonpositive latency %v", r.Workload, r.Mix, r.Latency)
		}
		switch r.Mix {
		case "drop":
			if r.Rel.Retransmits == 0 {
				t.Errorf("%s/drop: %d drops, zero retransmits", r.Workload, r.Faults.Dropped)
			}
		case "corrupt":
			if r.Rel.CsumDrops == 0 {
				t.Errorf("%s/corrupt: %d corruptions, zero checksum discards", r.Workload, r.Faults.Corrupted)
			}
		case "dup":
			if r.Rel.DupDrops == 0 {
				t.Errorf("%s/dup: %d duplicates, zero dup discards", r.Workload, r.Faults.Duplicated)
			}
		}
	}
}

// TestChaosReportDeterministic: same seed, bit-identical rendered report —
// the property the CI chaos determinism diff asserts end to end.
func TestChaosReportDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		RenderChaos(&b, RunChaos(ChaosConfig{NIC: NICConfig(Baseline), QueueLen: 20, Plan: Plan{Jobs: 4, Seed: 23}}))
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("chaos report diverged between identical runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if !strings.Contains(a, "preposted") || !strings.Contains(a, "unexpected") {
		t.Errorf("report missing workloads:\n%s", a)
	}
}
