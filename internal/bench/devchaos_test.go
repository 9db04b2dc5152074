package bench

import (
	"strings"
	"testing"

	"alpusim/internal/mpi"
)

// TestRunDevChaosEveryScenarioMatches: every device-fault scenario must
// complete (no hang — a dying device may cost time, never progress) with
// a matching digest byte-identical to the clean software-only reference,
// and with its fault class visibly injected.
func TestRunDevChaosEveryScenarioMatches(t *testing.T) {
	results := RunDevChaos(DevChaosConfig{Plan: Plan{Seed: 42}})
	if len(results) != len(DefaultDevChaosScenarios()) {
		t.Fatalf("got %d results, want %d", len(results), len(DefaultDevChaosScenarios()))
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("%s: digest %016x diverged from the clean reference", r.Scenario, r.Digest)
		}
		if r.Latency <= 0 {
			t.Errorf("%s: nonpositive latency %v", r.Scenario, r.Latency)
		}
		switch r.Scenario {
		case "bitflip-storm":
			if r.BitFlips == 0 || r.Resyncs == 0 {
				t.Errorf("bitflip-storm idle: flips=%d resyncs=%d", r.BitFlips, r.Resyncs)
			}
		case "result-drops":
			if r.DroppedResults == 0 || r.Strikes == 0 {
				t.Errorf("result-drops idle: drops=%d strikes=%d", r.DroppedResults, r.Strikes)
			}
		case "alpu-death":
			if r.Deaths == 0 || r.ShadowRebuilds == 0 {
				t.Errorf("alpu-death: no failover recorded: deaths=%d rebuilds=%d", r.Deaths, r.ShadowRebuilds)
			}
		case "fw-crash-loop":
			if r.FwCrashes == 0 || r.FwCrashes != r.FwRestarts {
				t.Errorf("fw-crash-loop: crashes=%d restarts=%d", r.FwCrashes, r.FwRestarts)
			}
		}
	}
}

// TestDevChaosReportDeterministic: same seed, bit-identical rendered
// report at serial and partitioned simulation — the property the CI
// devchaos determinism diff asserts end to end.
func TestDevChaosReportDeterministic(t *testing.T) {
	render := func(parts int) string {
		var b strings.Builder
		RenderDevChaos(&b, RunDevChaos(DevChaosConfig{Plan: Plan{Jobs: 4, Seed: 7, World: mpi.Config{Partitions: parts}}}))
		return b.String()
	}
	serial := render(0)
	if again := render(0); again != serial {
		t.Errorf("devchaos report diverged between identical runs:\n--- run 1\n%s--- run 2\n%s", serial, again)
	}
	if par := render(4); par != serial {
		t.Errorf("devchaos report diverged between -par 1 and -par 4:\n--- serial\n%s--- par\n%s", serial, par)
	}
	if !strings.Contains(serial, "alpu-death") || !strings.Contains(serial, "MATCH") {
		t.Errorf("report missing scenarios:\n%s", serial)
	}
	if strings.Contains(serial, "DIVERGED") {
		t.Errorf("report contains diverged scenario:\n%s", serial)
	}
}
