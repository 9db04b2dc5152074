package telemetry

import (
	"testing"

	"alpusim/internal/sim"
)

// The phase breakdown is a view over the lifecycle recorder; these tests
// reach it through the Phases alias its callers use. First-wins stamping
// is covered by TestCausalStampFirstWins.

// stampAll records a monotone pipeline for one message, 100 ns apart.
func stampAll(p *Phases, key uint64, base sim.Time) {
	for s := StampInject; s < numStamps; s++ {
		p.Stamp(key, s, base+sim.Time(s)*100*sim.Nanosecond)
	}
}

func TestBreakdownTelescopes(t *testing.T) {
	p := NewPhases()
	stampAll(p, 1, 5*sim.Microsecond)
	b, ok := p.Breakdown(1)
	if !ok {
		t.Fatal("complete message has no breakdown")
	}
	var sum sim.Time
	for _, d := range b.Durs {
		sum += d
	}
	if sum != b.Total {
		t.Errorf("phases do not telescope: sum %v != total %v", sum, b.Total)
	}
	if want := sim.Time(numStamps-1) * 100 * sim.Nanosecond; b.Total != want {
		t.Errorf("Total = %v, want %v", b.Total, want)
	}
	for ph, d := range b.Durs {
		if d != 100*sim.Nanosecond {
			t.Errorf("phase %v = %v, want 100ns", Phase(ph), d)
		}
	}
}

// Inject is optional (pre-posted receives have no workload stamp): the
// breakdown then starts at WireTx with a zero inject phase.
func TestBreakdownInjectFallback(t *testing.T) {
	p := NewPhases()
	for s := StampWireTx; s < numStamps; s++ {
		p.Stamp(7, s, sim.Time(s)*sim.Microsecond)
	}
	b, ok := p.Breakdown(7)
	if !ok {
		t.Fatal("message without Inject has no breakdown")
	}
	if b.Durs[PhaseInject] != 0 {
		t.Errorf("inject phase = %v, want 0", b.Durs[PhaseInject])
	}
	if want := sim.Time(numStamps-1-StampWireTx) * sim.Microsecond; b.Total != want {
		t.Errorf("Total = %v, want %v", b.Total, want)
	}
}

func TestBreakdownIncomplete(t *testing.T) {
	p := NewPhases()
	p.Stamp(3, StampWireTx, 0)
	p.Stamp(3, StampArrive, 10)
	if _, ok := p.Breakdown(3); ok {
		t.Error("incomplete pipeline produced a breakdown")
	}
	if _, ok := p.Breakdown(999); ok {
		t.Error("unknown key produced a breakdown")
	}
	if n := p.Totals().Messages; n != 0 {
		t.Errorf("Totals counted %d incomplete messages", n)
	}
}

func TestBreakdownClampsBackwardsStamps(t *testing.T) {
	p := NewPhases()
	stampAll(p, 1, sim.Microsecond)
	// Pathological: Complete stamped before Match (should not happen in a
	// causal pipeline, but must not yield negative phases).
	p.Stamp(2, StampWireTx, 100)
	p.Stamp(2, StampArrive, 200)
	p.Stamp(2, StampDeliver, 300)
	p.Stamp(2, StampFwPop, 400)
	p.Stamp(2, StampMatch, 500)
	p.Stamp(2, StampComplete, 450)
	p.Stamp(2, StampHostDone, 600)
	b, ok := p.Breakdown(2)
	if !ok {
		t.Fatal("no breakdown")
	}
	for ph, d := range b.Durs {
		if d < 0 {
			t.Errorf("phase %v negative: %v", Phase(ph), d)
		}
	}
}

func TestTotalsAndMerge(t *testing.T) {
	p := NewPhases()
	stampAll(p, 1, 0)
	stampAll(p, 2, sim.Microsecond)
	tot := p.Totals()
	if tot.Messages != 2 {
		t.Fatalf("Messages = %d, want 2", tot.Messages)
	}
	if want := 100.0; tot.MeanNs(PhaseSearch) != want {
		t.Errorf("MeanNs(search) = %v, want %v", tot.MeanNs(PhaseSearch), want)
	}
	if want := float64(numStamps-1) * 100; tot.MeanTotalNs() != want {
		t.Errorf("MeanTotalNs = %v, want %v", tot.MeanTotalNs(), want)
	}

	other := NewPhases()
	stampAll(other, 9, 0)
	tot.Merge(other.Totals())
	if tot.Messages != 3 {
		t.Errorf("merged Messages = %d, want 3", tot.Messages)
	}

	var zero Totals
	if zero.MeanNs(PhaseWire) != 0 || zero.MeanTotalNs() != 0 {
		t.Error("zero Totals means not 0")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseSearch.String() != "search" {
		t.Errorf("PhaseSearch = %q", PhaseSearch.String())
	}
	if Phase(-1).String() != "?" || NumPhases.String() != "?" {
		t.Error("out-of-range Phase.String not ?")
	}
}
