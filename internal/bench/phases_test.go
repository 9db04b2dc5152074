package bench

import (
	"bytes"
	"strings"
	"testing"

	"alpusim/internal/network"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
	"alpusim/internal/trace"
)

// The acceptance check of the phase experiment: for every NIC kind the
// phase columns telescope to the message's own total, and that total IS
// the independently measured Fig. 5 end-to-end latency.
func TestPhasesSumToEndToEnd(t *testing.T) {
	pts := RunPhases(PhasesConfig{CellGrid: CellGrid{QueueLens: []int{0, 64}, Plan: Plan{Jobs: -1}}})
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6 (3 kinds x 2 queue lens)", len(pts))
	}
	for _, p := range pts {
		var sum int64
		for _, d := range p.Breakdown.Durs {
			sum += int64(d)
		}
		if sum != int64(p.Breakdown.Total) {
			t.Errorf("%s q=%d: phases sum to %d, total %d",
				p.Kind, p.QueueLen, sum, p.Breakdown.Total)
		}
		if p.Breakdown.Total != p.Latency {
			t.Errorf("%s q=%d: breakdown total %v != measured latency %v",
				p.Kind, p.QueueLen, p.Breakdown.Total, p.Latency)
		}
		if p.Latency <= 0 {
			t.Errorf("%s q=%d: non-positive latency %v", p.Kind, p.QueueLen, p.Latency)
		}
		if p.Totals.Messages == 0 {
			t.Errorf("%s q=%d: no completed messages in totals", p.Kind, p.QueueLen)
		}
	}
	// The ALPU's reason to exist: at a deep queue its search phase beats
	// the baseline's firmware traversal.
	byKind := map[NICKind]PhasePoint{}
	for _, p := range pts {
		if p.QueueLen == 64 {
			byKind[p.Kind] = p
		}
	}
	base := byKind[Baseline].Breakdown.Durs[telemetry.PhaseSearch]
	alpu := byKind[ALPU256].Breakdown.Durs[telemetry.PhaseSearch]
	if alpu >= base {
		t.Errorf("alpu-256 search phase %v not below baseline %v at q=64", alpu, base)
	}
}

// Satellite: telemetry output is a pure function of config and seed —
// table, merged metrics JSON, and trace bytes identical at any -jobs.
func TestPhasesDeterministic(t *testing.T) {
	run := func(jobs int) (string, string, string) {
		pts := RunPhases(PhasesConfig{
			CellGrid: CellGrid{
				Kinds:     []NICKind{Baseline, ALPU128},
				QueueLens: []int{8, 32},
				Iters:     6,
				Plan:      Plan{Jobs: jobs, Faults: &network.FaultModel{DropProb: 0.05, Seed: 42}},
			},
			Trace: true,
		})
		var table, metrics, tr bytes.Buffer
		RenderPhases(&table, pts)
		if err := MergedMetrics(pts).WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteTrace(&tr, Tracers(pts)...); err != nil {
			t.Fatal(err)
		}
		return table.String(), metrics.String(), tr.String()
	}
	t1, m1, tr1 := run(1)
	t8, m8, tr8 := run(8)
	if t1 != t8 {
		t.Errorf("phase table differs across -jobs:\n%s\nvs\n%s", t1, t8)
	}
	if m1 != m8 {
		t.Error("metrics JSON differs across -jobs")
	}
	if tr1 != tr8 {
		t.Error("trace differs across -jobs")
	}
	if !strings.Contains(m1, "rel/data_sent") {
		t.Errorf("metrics JSON missing reliability counters:\n%.400s", m1)
	}
}

// The trace of a faulty ALPU run must show the hardware at work: search
// spans on the ALPU track and retransmit markers on the reliability
// track.
func TestTraceShowsSearchAndRetransmits(t *testing.T) {
	pts := RunPhases(PhasesConfig{
		CellGrid: CellGrid{
			Kinds:     []NICKind{ALPU128},
			QueueLens: []int{16},
			Iters:     30,
			Plan:      Plan{Faults: &network.FaultModel{DropProb: 0.1, Seed: 7}},
		},
		Trace: true,
	})
	p := pts[0]
	if p.Metrics.Sum("rel/retransmits") == 0 {
		t.Fatal("fault model injected no retransmits; test needs a harsher mix")
	}
	var b bytes.Buffer
	if err := telemetry.WriteTrace(&b, p.Tracer); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"name":"search"`, `"name":"retransmit"`, `"posted-alpu"`, `"reliability"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// Fault-free cells publish zeroed reliability counters only when the
// reliability engine is on; a clean run's error counters stay zero.
func TestPhasesCleanMetrics(t *testing.T) {
	pts := RunPhases(PhasesConfig{CellGrid: CellGrid{Kinds: []NICKind{Baseline}, QueueLens: []int{4}}})
	s := pts[0].Metrics
	if s.Sum("err") != 0 {
		t.Errorf("clean run recorded %d protocol errors", s.Sum("err"))
	}
	if got := s.Sum("faults"); got != 0 {
		t.Errorf("clean run recorded %d injected faults", got)
	}
	if s.Sum("fw/packets_handled") == 0 {
		t.Error("firmware packet counters not published")
	}
}

// Device-fault recovery must stamp into the right phases: the retry,
// resync and failover delay a degraded cell suffers lands in the
// search/recovery/rxfifo side of the pipeline — never in deliver
// (match -> completion write), which is fault-free by construction — and
// the columns still telescope to the measured end-to-end latency.
func TestPhasesDeviceFaultsLandBeforeDeliver(t *testing.T) {
	clean := RunPhases(PhasesConfig{CellGrid: CellGrid{Kinds: []NICKind{ALPU128}, QueueLens: []int{64}}})[0]
	cleanPerMsg := func(p telemetry.Phase) sim.Time {
		return clean.Totals.Durs[p] / sim.Time(clean.Totals.Messages)
	}
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
			p := RunPhases(PhasesConfig{
				CellGrid: CellGrid{
					Kinds:     []NICKind{ALPU128},
					QueueLens: []int{64},
					Plan:      Plan{Faults: &fm},
				},
			})[0]
			if p.Totals.Messages == 0 {
				t.Fatal("no completed messages under device faults")
			}
			// Telescoping must survive the fault machinery, per message and
			// in aggregate.
			var sum sim.Time
			for _, d := range p.Totals.Durs {
				sum += d
			}
			if sum != p.Totals.Total {
				t.Errorf("aggregate phases sum to %v, total %v", sum, p.Totals.Total)
			}
			var bsum sim.Time
			for _, d := range p.Breakdown.Durs {
				bsum += d
			}
			if bsum != p.Breakdown.Total || p.Breakdown.Total != p.Latency {
				t.Errorf("final-iteration phases %v / total %v / e2e %v diverge",
					bsum, p.Breakdown.Total, p.Latency)
			}
			// The recovery delay is real and visible upstream of delivery.
			perMsg := func(ph telemetry.Phase) sim.Time {
				return p.Totals.Durs[ph] / sim.Time(p.Totals.Messages)
			}
			degraded := perMsg(telemetry.PhaseSearch) + perMsg(telemetry.PhaseRecovery) +
				perMsg(telemetry.PhaseRxFIFO)
			baseline := cleanPerMsg(telemetry.PhaseSearch) + cleanPerMsg(telemetry.PhaseRecovery) +
				cleanPerMsg(telemetry.PhaseRxFIFO)
			if degraded <= baseline {
				t.Errorf("device faults added no search/recovery/rxfifo time: %v <= clean %v",
					degraded, baseline)
			}
			// Deliver (match -> completion) must not absorb recovery time.
			if got, want := perMsg(telemetry.PhaseDeliver), cleanPerMsg(telemetry.PhaseDeliver); got > want {
				t.Errorf("deliver phase grew under device faults: %v > clean %v", got, want)
			}
		})
	}
}

// The ALPU device publishes its per-probe search service time as a
// histogram, so the snapshot table and the Prometheus quantile gauges
// can report p50/p95/p99 search latency per unit.
func TestALPUSearchCyclesHistogramPublished(t *testing.T) {
	p := RunPhases(PhasesConfig{CellGrid: CellGrid{Kinds: []NICKind{ALPU128}, QueueLens: []int{32}}})[0]
	populated := 0
	for name, h := range p.Metrics.Hists {
		if !strings.HasSuffix(name, "/search_cycles") || h.N() == 0 {
			continue // the unexpected-queue unit sees no probes here
		}
		populated++
		if h.Percentile(0.5) <= 0 {
			t.Errorf("%s p50 = %d, want > 0", name, h.Percentile(0.5))
		}
	}
	if populated == 0 {
		t.Errorf("no populated search_cycles histogram in snapshot; hists: %v",
			keysOf(p.Metrics.Hists))
	}
}

func keysOf(m map[string]trace.Histogram) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
