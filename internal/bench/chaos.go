package bench

import (
	"fmt"
	"io"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/sweep"
)

// The chaos experiment: the Fig. 5 and Fig. 6 workloads re-run over a
// faulty network, with the NIC reliability protocol recovering. Latencies
// are expected to move (recovery costs time); the matching outcome is not
// — the workloads complete only if every probe matched its intended
// receive, so a finished run IS the correctness check, and the report
// focuses on what the recovery cost and how often each mechanism fired.

// chaosWatchdogLimit bounds each faulty world; these two-rank workloads
// drain in microseconds even under heavy recovery.
const chaosWatchdogLimit = 500 * sim.Millisecond

// ChaosMix is one named fault mix of the chaos matrix.
type ChaosMix struct {
	Name   string
	Faults network.FaultModel // Seed is overridden per run
}

// DefaultChaosMixes is the evaluation matrix: each fault class alone, then
// all four together.
func DefaultChaosMixes() []ChaosMix {
	return []ChaosMix{
		{"drop", network.FaultModel{DropProb: 0.02}},
		{"dup", network.FaultModel{DupProb: 0.02}},
		{"reorder", network.FaultModel{ReorderProb: 0.05}},
		{"corrupt", network.FaultModel{CorruptProb: 0.02}},
		{"all", network.FaultModel{DropProb: 0.01, DupProb: 0.01, ReorderProb: 0.01, CorruptProb: 0.01}},
	}
}

// ChaosConfig parameterises the chaos experiment.
type ChaosConfig struct {
	NIC nic.Config
	// QueueLen / MsgSize shape the workloads (0 = 50 entries / 1024 B).
	QueueLen int
	MsgSize  int
	// Plan seeds every mix; Plan.Faults, when set, replaces
	// DefaultChaosMixes with the single mix "custom". The report is
	// identical at any Plan.World.Partitions >= 1.
	Plan
}

// ChaosResult is one (workload, mix) cell of the chaos report.
type ChaosResult struct {
	Workload string // "preposted" | "unexpected"
	Mix      string // "clean" is the fault-free reference
	Latency  sim.Time
	Faults   network.FaultStats
	Rel      nic.RelStats
	Errors   uint64 // recoverable protocol errors (NIC.Errors totals)
}

// worldTotals folds the per-NIC reliability and error counters of a
// drained world out of its telemetry registry: Sum("rel/retransmits")
// adds "nic0/rel/retransmits" + "nic1/rel/retransmits" + ...
func worldTotals(w *mpi.World) (nic.RelStats, uint64) {
	s := w.TelemetrySnapshot()
	rel := nic.RelStats{
		DataSent:    s.Sum("rel/data_sent"),
		Retransmits: s.Sum("rel/retransmits"),
		Timeouts:    s.Sum("rel/timeouts"),
		AcksSent:    s.Sum("rel/acks_sent"),
		NacksSent:   s.Sum("rel/nacks_sent"),
		RNRSent:     s.Sum("rel/rnr_sent"),
		AcksRecv:    s.Sum("rel/acks_recv"),
		NacksRecv:   s.Sum("rel/nacks_recv"),
		RNRRecv:     s.Sum("rel/rnr_recv"),
		CsumDrops:   s.Sum("rel/csum_drops"),
		DupDrops:    s.Sum("rel/dup_drops"),
		GapDrops:    s.Sum("rel/gap_drops"),
		Recoveries:  s.Sum("rel/recoveries"),
	}
	return rel, s.Sum("err")
}

// RunChaos runs both figure workloads fault-free and under every mix.
// Results are ordered (workload, then clean + mixes); cells run on
// cfg.Jobs parallel worlds but the order is deterministic regardless.
func RunChaos(cfg ChaosConfig) []ChaosResult {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 50
	}
	if cfg.MsgSize <= 0 {
		cfg.MsgSize = 1024
	}
	mixes := DefaultChaosMixes()
	if cfg.Faults != nil {
		mixes = []ChaosMix{{Name: "custom", Faults: *cfg.Faults}}
	}
	// Cell 0 of each workload is the fault-free reference.
	type cell struct {
		workload string
		mix      string
		fm       *network.FaultModel
	}
	var cells []cell
	for _, workload := range []string{"preposted", "unexpected"} {
		cells = append(cells, cell{workload, "clean", nil})
		for _, m := range mixes {
			fm := m.Faults
			fm.Seed = cfg.Seed
			cells = append(cells, cell{workload, m.Name, &fm})
		}
	}
	return sweep.Map(cfg.Jobs, len(cells), func(i int) ChaosResult {
		c := cells[i]
		plan := cfg.Plan
		plan.World.Faults, plan.World.WatchdogLimit = c.fm, chaosWatchdogLimit
		var lat sim.Time
		var w *mpi.World
		switch c.workload {
		case "preposted":
			// Many probe iterations: the figure run needs only the cache
			// steady state, but the chaos run needs enough transmissions for
			// percent-level fault rates to fire.
			lat, w = prepostedPoint(PrepostedConfig{NIC: cfg.NIC, MsgSize: cfg.MsgSize, Iters: 40, Plan: plan},
				cfg.QueueLen, cfg.QueueLen)
		default:
			lat, w = unexpectedPoint(UnexpectedConfig{NIC: cfg.NIC, MsgSize: cfg.MsgSize, Plan: plan}, cfg.QueueLen)
		}
		rel, errs := worldTotals(w)
		return ChaosResult{
			Workload: c.workload, Mix: c.mix, Latency: lat,
			Faults: w.Net.FaultStats(), Rel: rel, Errors: errs,
		}
	})
}

// RenderChaos writes the chaos report as an aligned table. Output is a
// pure function of the config and seed (no wall-clock content), so two
// runs with the same seed diff empty (alpusim's goldens pin it).
func RenderChaos(out io.Writer, results []ChaosResult) {
	tb := stats.NewTable("workload", "mix", "latency",
		"injected(d/D/r/c)", "retx", "timeouts", "nacks", "rnr",
		"drops(csum/dup/gap)", "recoveries", "errors")
	for _, r := range results {
		tb.AddRow(
			r.Workload, r.Mix, r.Latency.String(),
			fmt.Sprintf("%d/%d/%d/%d", r.Faults.Dropped, r.Faults.Duplicated, r.Faults.Reordered, r.Faults.Corrupted),
			r.Rel.Retransmits, r.Rel.Timeouts, r.Rel.NacksSent, r.Rel.RNRSent,
			fmt.Sprintf("%d/%d/%d", r.Rel.CsumDrops, r.Rel.DupDrops, r.Rel.GapDrops),
			r.Rel.Recoveries, r.Errors,
		)
	}
	tb.Render(out)
}
