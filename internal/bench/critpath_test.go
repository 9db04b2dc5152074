package bench

import (
	"bytes"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/sim"
)

// The structural invariants of every causal report: blame shares sum to
// exactly 100.0%, blame durations sum to the critical path itself, and
// the critical path covers every single-message makespan component (no
// chain is longer than the path that by construction extends it).
func TestCritPathBlameInvariants(t *testing.T) {
	pts := RunCritPath(CritPathConfig{CellGrid: CellGrid{QueueLens: []int{0, 64}, Plan: Plan{Jobs: -1}}})
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6 (3 kinds x 2 queue lens)", len(pts))
	}
	for _, pt := range pts {
		rep := pt.Report
		if rep.Messages == 0 {
			t.Errorf("%s: no completed messages", pt.Label())
			continue
		}
		pm := 0
		var durs sim.Time
		for _, b := range rep.Blame {
			pm += b.Permille
			durs += b.Dur
		}
		if pm != 1000 {
			t.Errorf("%s: blame permille sums to %d, want 1000", pt.Label(), pm)
		}
		if durs != rep.CriticalPath {
			t.Errorf("%s: blame durations sum to %v, critical path %v",
				pt.Label(), durs, rep.CriticalPath)
		}
		if len(rep.PathKeys) == 0 {
			t.Errorf("%s: empty critical path", pt.Label())
		}
		for _, ch := range rep.TopK {
			if rep.CriticalPath < ch.Total {
				t.Errorf("%s: critical path %v shorter than chain %v",
					pt.Label(), rep.CriticalPath, ch.Total)
			}
		}
		// The final-iteration e2e latency is one chain of the DAG, so the
		// critical path can never undercut it.
		if rep.CriticalPath < pt.Latency {
			t.Errorf("%s: critical path %v < measured e2e latency %v",
				pt.Label(), rep.CriticalPath, pt.Latency)
		}
		if rep.LastDone <= rep.FirstStart {
			t.Errorf("%s: degenerate makespan [%v, %v]", pt.Label(), rep.FirstStart, rep.LastDone)
		}
	}
}

// The Fig. 5 argument, derived rather than asserted: at a deep posted
// queue, making search free would shorten the baseline's critical path
// far more than the ALPU world's, because the ALPU already removed the
// linear traversal from the path.
func TestCritPathWhatIfFig5Ordering(t *testing.T) {
	pts := RunCritPath(CritPathConfig{CellGrid: CellGrid{QueueLens: []int{128}, Plan: Plan{Jobs: -1}}})
	speedup := func(kind NICKind) float64 {
		for _, pt := range pts {
			if pt.Kind != kind {
				continue
			}
			for _, wi := range pt.Report.WhatIf {
				if wi.Resource == "search" {
					return wi.Speedup
				}
			}
		}
		t.Fatalf("no search what-if row for %s", kind)
		return 0
	}
	base, alpu := speedup(Baseline), speedup(ALPU256)
	if base <= alpu {
		t.Errorf("free search speeds baseline up %vx, alpu-256 %vx; want baseline >",
			base, alpu)
	}
	if alpu < 1.0 {
		t.Errorf("alpu-256 what-if speedup %v < 1 (zeroing a resource cannot slow the run)", alpu)
	}
}

// The whole report — rendered tables and JSON — is byte-identical at any
// -jobs and -par setting, including under a fault mix exercising
// retransmits and device resync windows.
func TestCritPathDeterministic(t *testing.T) {
	run := func(jobs, par int) (string, string) {
		pts := RunCritPath(CritPathConfig{
			CellGrid: CellGrid{
				Kinds:     []NICKind{Baseline, ALPU128},
				QueueLens: []int{8, 64},
				Plan: Plan{
					Jobs: jobs,
					Faults: &network.FaultModel{
						Seed: 42, DropProb: 0.05, ALPUBitFlipProb: 0.02,
					},
					World: mpi.Config{Partitions: par},
				},
			},
		})
		var table, doc bytes.Buffer
		RenderCritPath(&table, pts)
		if err := WriteCritPathJSON(&doc, pts); err != nil {
			t.Fatal(err)
		}
		return table.String(), doc.String()
	}
	t1, d1 := run(1, 1)
	t8, d8 := run(8, 1)
	tp, dp := run(1, 2)
	if t1 != t8 {
		t.Errorf("table differs across -jobs:\n%s\nvs\n%s", t1, t8)
	}
	if d1 != d8 {
		t.Error("JSON report differs across -jobs")
	}
	if t1 != tp {
		t.Errorf("table differs across -par:\n%s\nvs\n%s", t1, tp)
	}
	if d1 != dp {
		t.Error("JSON report differs across -par")
	}
}

// Device faults must surface as resync blame on the causal report: a
// bit-flip storm (strikes, retries, resync windows) and an early ALPU
// death (every subsequent search via the firmware's hash shadow) both
// re-attribute search-gap time to the resync resource.
func TestCritPathResyncBlameUnderDeviceFaults(t *testing.T) {
	scenarios := []struct {
		name string
		fm   network.FaultModel
	}{
		{"bitflip", network.FaultModel{Seed: 42, ALPUBitFlipProb: 0.1}},
		{"death-failover", network.FaultModel{Seed: 42, ALPUDeathAt: 1 * sim.Nanosecond}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			fm := sc.fm
			pts := RunCritPath(CritPathConfig{
				CellGrid: CellGrid{
					Kinds:     []NICKind{ALPU128},
					QueueLens: []int{64},
					Plan:      Plan{Faults: &fm},
				},
			})
			rep := pts[0].Report
			if rep.Messages == 0 {
				t.Fatal("no completed messages under device faults")
			}
			var resync, deliver sim.Time
			for _, b := range rep.Blame {
				switch b.Resource {
				case "resync":
					resync = b.Dur
				case "deliver":
					deliver = b.Dur
				}
			}
			if resync == 0 {
				t.Error("device-fault run attributed no critical-path time to resync")
			}
			// Fault recovery must not leak into the delivery edge: compare
			// against a clean run of the same cell.
			clean := RunCritPath(CritPathConfig{
				CellGrid: CellGrid{
					Kinds:     []NICKind{ALPU128},
					QueueLens: []int{64},
				},
			})[0].Report
			var cleanDeliver sim.Time
			for _, b := range clean.Blame {
				if b.Resource == "deliver" {
					cleanDeliver = b.Dur
				}
			}
			if deliver > cleanDeliver {
				t.Errorf("deliver blame grew under device faults: %v > clean %v "+
					"(recovery time must land in resync, not deliver)", deliver, cleanDeliver)
			}
		})
	}
}
