package telemetry

import (
	"math/rand"
	"reflect"
	"testing"

	"alpusim/internal/sim"
)

// stampChain records a fully completed message with the given boundary
// times (one per stamp, in pipeline order).
func stampChain(c *Causal, key uint64, at ...sim.Time) {
	for s := Stamp(0); s < numStamps; s++ {
		c.Stamp(key, s, at[s])
	}
}

// A convenience pipeline: inject at t0, then fixed 10ps per gap. Total
// chain time = 70ps.
func uniformChain(c *Causal, key uint64, t0 sim.Time) {
	at := make([]sim.Time, numStamps)
	for s := range at {
		at[s] = t0 + sim.Time(s)*10
	}
	stampChain(c, key, at...)
}

func TestCausalIncompleteExcluded(t *testing.T) {
	c := NewCausal()
	uniformChain(c, 1, 100)
	c.Stamp(2, StampWireTx, 500) // never completes
	rep, ok := c.Analyze(3)
	if !ok {
		t.Fatal("Analyze reported no completed messages")
	}
	if rep.Messages != 1 {
		t.Fatalf("Messages = %d, want 1 (incomplete chain must be excluded)", rep.Messages)
	}
	if rep.CriticalPath != 70 {
		t.Fatalf("CriticalPath = %d, want 70", rep.CriticalPath)
	}
}

func TestCausalStampFirstWins(t *testing.T) {
	c := NewCausal()
	uniformChain(c, 1, 100)
	c.Stamp(1, StampMatch, 9999) // must not override
	ch, ok := c.chain(1)
	if !ok {
		t.Fatal("chain(1) incomplete")
	}
	if ch.Total != 70 {
		t.Fatalf("Total = %d after duplicate stamp, want 70", ch.Total)
	}
}

func TestCausalBlameSumsToChainAndPermille(t *testing.T) {
	c := NewCausal()
	// Deliberately lumpy gaps so permille rounding has remainders.
	stampChain(c, 7, 0, 3, 10, 11, 12, 40, 41, 100)
	rep, ok := c.Analyze(0)
	if !ok {
		t.Fatal("no report")
	}
	var durSum sim.Time
	pmSum := 0
	for _, b := range rep.Blame {
		durSum += b.Dur
		pmSum += b.Permille
	}
	if durSum != rep.CriticalPath {
		t.Errorf("blame durations sum to %d, critical path is %d", durSum, rep.CriticalPath)
	}
	if pmSum != 1000 {
		t.Errorf("permille shares sum to %d, want exactly 1000", pmSum)
	}
	if len(rep.Blame) != int(NumResources) {
		t.Errorf("blame rows = %d, want %d (fixed table shape)", len(rep.Blame), NumResources)
	}
}

func TestCausalCauseLinksExtendCriticalPath(t *testing.T) {
	c := NewCausal()
	uniformChain(c, 1, 0)   // [0, 70]
	uniformChain(c, 2, 100) // [100, 170], caused by 1 => host gap 30
	c.Cause(2, 1)
	rep, ok := c.Analyze(0)
	if !ok {
		t.Fatal("no report")
	}
	// 70 (msg 1) + 30 (host gap) + 70 (msg 2)
	if rep.CriticalPath != 170 {
		t.Fatalf("CriticalPath = %d, want 170", rep.CriticalPath)
	}
	if want := []uint64{1, 2}; !reflect.DeepEqual(rep.PathKeys, want) {
		t.Fatalf("PathKeys = %v, want %v (cause-first order)", rep.PathKeys, want)
	}
	// The critical path must be at least the span any single message covers.
	for _, k := range []uint64{1, 2} {
		ch, _ := c.chain(k)
		if rep.CriticalPath < ch.Total {
			t.Errorf("critical path %d shorter than chain %d of msg %d", rep.CriticalPath, ch.Total, k)
		}
	}
}

func TestCausalWhatIfZeroesResource(t *testing.T) {
	c := NewCausal()
	uniformChain(c, 1, 0)
	uniformChain(c, 2, 100)
	c.Cause(2, 1)
	rep, _ := c.Analyze(0)
	byRes := map[string]CausalWhatIf{}
	for _, wi := range rep.WhatIf {
		byRes[wi.Resource] = wi
	}
	// Zeroing host removes the 30ps inter-message gap AND each chain's own
	// 10ps host edge: 170 - 30 - 20 = 120.
	if got := byRes["host"].Predicted; got != 120 {
		t.Errorf("what-if host predicted %d, want 120", got)
	}
	// Zeroing search removes one 10ps edge per message.
	if got := byRes["search"].Predicted; got != 150 {
		t.Errorf("what-if search predicted %d, want 150", got)
	}
	if s := byRes["search"].Speedup; s <= 1.0 {
		t.Errorf("search speedup %v, want > 1", s)
	}
	// Resync was never annotated: zeroing it changes nothing.
	if got := byRes["resync"].Predicted; got != rep.CriticalPath {
		t.Errorf("what-if resync predicted %d, want unchanged %d", got, rep.CriticalPath)
	}
}

func TestCausalAnnotationSplitsSearchGap(t *testing.T) {
	c := NewCausal()
	// Search gap (FwPop -> Match) is 30ps.
	stampChain(c, 3, 0, 10, 20, 30, 40, 70, 80, 90)
	c.Annotate(3, ResResync, 12)
	ch, ok := c.chain(3)
	if !ok {
		t.Fatal("chain incomplete")
	}
	var search, resync sim.Time
	for _, e := range ch.Edges {
		switch e.Resource {
		case "search":
			search = e.Dur
		case "resync":
			resync = e.Dur
		}
	}
	if search != 18 || resync != 12 {
		t.Fatalf("search=%d resync=%d, want 18/12 (annotation carves the gap)", search, resync)
	}
}

func TestCausalAnnotationClampedToGap(t *testing.T) {
	c := NewCausal()
	stampChain(c, 3, 0, 10, 20, 30, 40, 70, 80, 90)
	c.Annotate(3, ResResync, 500) // over-approximation must not break telescoping
	ch, _ := c.chain(3)
	var sum sim.Time
	for _, e := range ch.Edges {
		sum += e.Dur
	}
	if sum != ch.Total {
		t.Fatalf("edges sum to %d, total is %d (clamp failed)", sum, ch.Total)
	}
}

// Absorb must be canonical: the same records split across shards in any
// order produce an identical report.
func TestCausalAbsorbOrderInvariant(t *testing.T) {
	build := func(order []int) CausalReport {
		shards := make([]*Causal, 3)
		for i := range shards {
			shards[i] = NewCausal()
		}
		// Message 1's stamps recorded on shard 0, message 2's split between
		// shards 1 and 2; cause link on shard 0; annotation summed across
		// shards 1 and 2.
		uniformChain(shards[0], 1, 0)
		at := make([]sim.Time, numStamps)
		for s := range at {
			at[s] = 100 + sim.Time(s)*10
		}
		for s := Stamp(0); s < numStamps; s++ {
			shards[1+int(s)%2].Stamp(2, s, at[s])
		}
		shards[0].Cause(2, 1)
		shards[1].Annotate(2, ResResync, 3)
		shards[2].Annotate(2, ResResync, 4)

		merged := NewCausal()
		for _, i := range order {
			merged.Absorb(shards[i])
		}
		rep, ok := merged.Analyze(5)
		if !ok {
			t.Fatalf("merge order %v: no report", order)
		}
		return rep
	}
	ref := build([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 2, 0}, {2, 0, 1}} {
		if got := build(order); !reflect.DeepEqual(got, ref) {
			t.Errorf("report differs for absorb order %v:\n got %+v\nwant %+v", order, got, ref)
		}
	}
}

func TestCausalTop1(t *testing.T) {
	c := NewCausal()
	uniformChain(c, 1, 0)
	stampChain(c, 2, 200, 210, 220, 230, 240, 500, 510, 520) // slowest: 320ps
	ch, ok := c.Top1()
	if !ok {
		t.Fatal("Top1 found nothing")
	}
	if ch.Key != 2 || ch.Total != 320 {
		t.Fatalf("Top1 = key %d total %d, want key 2 total 320", ch.Key, ch.Total)
	}
}

func TestCausalNilSafe(t *testing.T) {
	var c *Causal
	c.Stamp(1, StampInject, 1)
	c.Cause(1, 2)
	c.Annotate(1, ResResync, 3)
	c.Absorb(NewCausal())
	if _, ok := c.Analyze(1); ok {
		t.Error("nil recorder produced a report")
	}
	if _, ok := c.Top1(); ok {
		t.Error("nil recorder produced a Top1 chain")
	}
}

func TestCausalSelfCauseIgnored(t *testing.T) {
	c := NewCausal()
	uniformChain(c, 1, 0)
	c.Cause(1, 1)
	rep, _ := c.Analyze(0)
	if rep.CriticalPath != 70 {
		t.Fatalf("self-cause changed the critical path: %d", rep.CriticalPath)
	}
}

// Property: on random monotone stamp sets (optional inject, ignored late
// re-stamps), with and without a resync annotation, the phase breakdown
// is the causal chain with its search and resync edges summed, and both
// telescope to the same total.
func TestBreakdownMatchesChainProperty(t *testing.T) {
	phaseOf := map[string]Phase{
		"inject": PhaseInject, "wire": PhaseWire, "recovery": PhaseRecovery,
		"rxfifo": PhaseRxFIFO, "search": PhaseSearch, "resync": PhaseSearch,
		"deliver": PhaseDeliver, "host": PhaseHost,
	}
	rng := rand.New(rand.NewSource(1))
	for key := uint64(0); key < 2000; key++ {
		c := NewCausal()
		inject := rng.Intn(2) == 0
		at := sim.Time(rng.Int63n(1_000_000))
		for s := StampInject; s < numStamps; s++ {
			at += sim.Time(rng.Int63n(5000)) // zero gaps included
			if s == StampInject && !inject {
				continue
			}
			c.Stamp(key, s, at)
			if rng.Intn(4) == 0 {
				c.Stamp(key, s, at+1+sim.Time(rng.Int63n(10_000))) // first wins
			}
		}
		resync := rng.Intn(2) == 0
		if resync {
			c.Annotate(key, ResResync, 1+sim.Time(rng.Int63n(20_000)))
		}
		b, ok := c.Breakdown(key)
		ch, okc := c.chain(key)
		if !ok || !okc {
			t.Fatalf("key %d: complete message has breakdown %v, chain %v", key, ok, okc)
		}
		var fromChain [NumPhases]sim.Time
		var chainSum, phaseSum sim.Time
		for _, e := range ch.Edges {
			fromChain[phaseOf[e.Resource]] += e.Dur
			chainSum += e.Dur
		}
		for _, d := range b.Durs {
			phaseSum += d
		}
		if fromChain != b.Durs {
			t.Fatalf("key %d (inject=%v resync=%v): chain phases %v != breakdown %v",
				key, inject, resync, fromChain, b.Durs)
		}
		if phaseSum != b.Total || chainSum != ch.Total || b.Total != ch.Total {
			t.Fatalf("key %d: phases sum %v, chain sum %v, totals %v/%v do not telescope",
				key, phaseSum, chainSum, b.Total, ch.Total)
		}
	}
}
