package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"alpusim/internal/sim"
)

// Causal is the simulator's one per-message lifecycle recorder. Its
// first-wins pipeline stamps (phases.go) answer "where did the mean
// message spend its time" through Breakdown and Totals; the causal
// analysis generalises that to "which resource gated the run". Every
// tracked message contributes a chain of typed edges (cause event ->
// effect event, resource, sim-duration) built from the stamps, refined by
// two extra records only the causal analysis needs:
//
//   - a cause link: message B was posted because message A completed
//     (the host-side program order, recorded by the workload, which knows
//     its own dependency structure). Cause links join per-message chains
//     into a run-spanning DAG;
//   - resource annotations: a sub-interval of a stamp gap re-attributed
//     to a finer resource. The firmware uses this to split the search gap
//     into genuine queue search versus device-fault resync/failover time
//     (a software fallback walk under needResync is recovery cost, not
//     search cost).
//
// On the DAG the analysis computes the critical path (longest sim-time
// path from the first inject to the last completion), per-resource blame
// for it (fractions summing to exactly 100.0%), the top-K slowest
// messages with their full chains, and a what-if table: the critical
// path re-walked with one resource's edges zeroed — "how fast would the
// run be if ALPU search were free" — which is the paper's Fig. 5
// argument derived from first principles on every run.
//
// Like every recorder, Causal is sharded per partition and canonically
// merged: stamps are first-wins per (key, stamp) and recorded by exactly
// one side, cause links are first-wins per key and recorded by the
// single workload goroutine that knows the dependency, annotations are
// commutative sums. Analysis iterates keys in sorted order, so every
// report byte is identical at any -par / -jobs.

// Resource classifies a causal edge by the pipeline resource that
// consumed its duration.
type Resource int

// Resources, in pipeline order. The first seven mirror the phase
// breakdown; ResResync is carved out of the search gap by firmware
// annotations when the time was really spent in device-fault recovery
// (resync windows, widened fallback walks, failover shadow searches).
const (
	ResInject Resource = iota
	ResWire
	ResRecovery
	ResRxFIFO
	ResSearch
	ResResync
	ResDeliver
	ResHost
	NumResources
)

var resourceNames = [NumResources]string{
	"inject", "wire", "recovery", "rxfifo", "search", "resync", "deliver", "host",
}

// String returns the resource's short report name.
func (r Resource) String() string {
	if r < 0 || r >= NumResources {
		return "?"
	}
	return resourceNames[r]
}

type causalRec struct {
	t         [numStamps]sim.Time
	seen      uint16
	parent    uint64
	hasParent bool
	ann       [NumResources]sim.Time
}

// Causal records the per-message causal context for one simulated world.
// Messages are keyed by their packed match bits (mpi.MsgKey); a nil
// *Causal is a valid no-op recorder.
type Causal struct {
	recs map[uint64]*causalRec
	keys []uint64 // first-record order; analysis sorts, so order is cosmetic
}

// NewCausal returns an empty recorder.
func NewCausal() *Causal { return &Causal{recs: make(map[uint64]*causalRec)} }

func (c *Causal) rec(key uint64) *causalRec {
	r := c.recs[key]
	if r == nil {
		r = &causalRec{}
		c.recs[key] = r
		c.keys = append(c.keys, key)
	}
	return r
}

// Stamp records the simulated time of a pipeline boundary for a message.
// First-wins: re-stamping the same (key, stamp) — a retransmit, a
// duplicate delivery — is ignored.
func (c *Causal) Stamp(key uint64, s Stamp, at sim.Time) {
	if c == nil || s < 0 || s >= numStamps {
		return
	}
	r := c.rec(key)
	if r.seen&(1<<uint(s)) != 0 {
		return
	}
	r.seen |= 1 << uint(s)
	r.t[s] = at
}

// Cause records that key was posted as a consequence of parent's
// completion (host program order). First-wins; self-causes are ignored.
func (c *Causal) Cause(key, parent uint64) {
	if c == nil || key == parent {
		return
	}
	r := c.rec(key)
	if r.hasParent {
		return
	}
	r.parent = parent
	r.hasParent = true
}

// Annotate re-attributes d of key's stamp-gap time to resource res.
// Additive and commutative, so shard merge order cannot change it. The
// analysis clips the total against the gap the resource is carved from
// (today: ResResync against the search gap).
func (c *Causal) Annotate(key uint64, res Resource, d sim.Time) {
	if c == nil || res < 0 || res >= NumResources || d <= 0 {
		return
	}
	c.rec(key).ann[res] += d
}

// Absorb folds the records of shards into c, in shard order. A
// partitioned world gives each partition its own recorder; the stamps for
// one message may split across shards — WireTx on the sender's
// partition, the receive pipeline on the receiver's — and first-wins
// semantics survive because any one (key, stamp) is recorded by one
// side. Cause links keep first-wins, annotations sum. Absorbing c into
// itself is a no-op.
func (c *Causal) Absorb(shards ...*Causal) {
	if c == nil {
		return
	}
	for _, s := range shards {
		if s == nil || s == c {
			continue
		}
		for _, key := range s.keys {
			sr := s.recs[key]
			for st := Stamp(0); st < numStamps; st++ {
				if sr.seen&(1<<uint(st)) != 0 {
					c.Stamp(key, st, sr.t[st])
				}
			}
			if sr.hasParent {
				c.Cause(key, sr.parent)
			}
			for res := Resource(0); res < NumResources; res++ {
				c.Annotate(key, res, sr.ann[res])
			}
		}
	}
}

// CausalEdge is one typed edge of a message chain.
type CausalEdge struct {
	Resource string   `json:"resource"`
	Dur      sim.Time `json:"ps"`
}

// CausalChain is one message's complete causal chain: its typed edges in
// pipeline order, plus the cause link to its parent when recorded.
type CausalChain struct {
	Key       uint64       `json:"key"`
	Start     sim.Time     `json:"start_ps"`
	End       sim.Time     `json:"end_ps"`
	Total     sim.Time     `json:"total_ps"`
	Parent    uint64       `json:"parent,omitempty"`
	HasParent bool         `json:"has_parent"`
	Edges     []CausalEdge `json:"edges"`
}

// String renders the chain compactly for diagnostic dumps.
func (ch CausalChain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msg %#x total=%v [%v..%v]", ch.Key, ch.Total, ch.Start, ch.End)
	if ch.HasParent {
		fmt.Fprintf(&b, " cause=%#x", ch.Parent)
	}
	for _, e := range ch.Edges {
		if e.Dur > 0 {
			fmt.Fprintf(&b, " %s=%v", e.Resource, e.Dur)
		}
	}
	return b.String()
}

// CausalBlame is one row of the critical-path blame table. Permille is
// the share of the critical path in tenths of a percent; the rows of a
// report sum to exactly 1000 (largest-remainder apportionment).
type CausalBlame struct {
	Resource string   `json:"resource"`
	Dur      sim.Time `json:"ps"`
	Permille int      `json:"permille"`
}

// CausalWhatIf is one row of the what-if table: the predicted critical
// path with one resource's edges zeroed, and the implied speedup.
type CausalWhatIf struct {
	Resource  string   `json:"resource"`
	Predicted sim.Time `json:"predicted_ps"`
	Speedup   float64  `json:"speedup"`
}

// CausalReport is the full analysis of one world's causal graph.
type CausalReport struct {
	Messages     int            `json:"messages"`
	FirstStart   sim.Time       `json:"first_start_ps"`
	LastDone     sim.Time       `json:"last_done_ps"`
	CriticalPath sim.Time       `json:"critical_path_ps"`
	PathKeys     []uint64       `json:"path_keys"`
	Blame        []CausalBlame  `json:"blame"`
	WhatIf       []CausalWhatIf `json:"what_if"`
	TopK         []CausalChain  `json:"top_k"`
}

// complete reports whether r carries every stamp from WireTx through
// HostDone (Inject is optional).
func (r *causalRec) complete() bool { return r != nil && r.seen&needMask == needMask }

// breakdown telescopes r's stamps into per-phase durations. The chain
// starts at Inject when stamped and at WireTx otherwise; a stamp that
// precedes its predecessor clamps that phase to zero.
func (r *causalRec) breakdown() Breakdown {
	var b Breakdown
	start := r.t[StampInject]
	if r.seen&(1<<uint(StampInject)) == 0 {
		start = r.t[StampWireTx]
	}
	prev := start
	for s := StampWireTx; s < numStamps; s++ {
		b.Durs[Phase(s-1)] = max(r.t[s]-prev, 0)
		prev = r.t[s]
	}
	b.Total = r.t[StampHostDone] - start
	return b
}

// Breakdown returns the phase breakdown for a message, or ok=false if
// the message never completed the pipeline (e.g. a rendezvous transfer,
// which the recorder does not track end to end).
func (c *Causal) Breakdown(key uint64) (Breakdown, bool) {
	if c == nil || !c.recs[key].complete() {
		return Breakdown{}, false
	}
	return c.recs[key].breakdown(), true
}

// Totals sums the breakdowns of every completed message.
func (c *Causal) Totals() Totals {
	var t Totals
	if c == nil {
		return t
	}
	for _, key := range c.keys {
		if b, ok := c.Breakdown(key); ok {
			t.Merge(Totals{Messages: 1, Durs: b.Durs, Total: b.Total})
		}
	}
	return t
}

// phaseRes maps each phase to the resource its edge is charged to.
var phaseRes = [NumPhases]Resource{
	ResInject, ResWire, ResRecovery, ResRxFIFO, ResSearch, ResDeliver, ResHost,
}

// chain builds the decomposed edge list for a completed key: the phase
// breakdown with the search gap split into search + resync per the
// recorded annotation.
func (c *Causal) chain(key uint64) (CausalChain, bool) {
	r := c.recs[key]
	if !r.complete() {
		return CausalChain{}, false
	}
	b := r.breakdown()
	ch := CausalChain{Key: key, Parent: r.parent, HasParent: r.hasParent,
		End: r.t[StampHostDone], Total: b.Total}
	ch.Start = ch.End - b.Total
	for p, d := range b.Durs {
		res := phaseRes[p]
		if res == ResSearch {
			resync := min(r.ann[ResResync], d)
			ch.Edges = append(ch.Edges,
				CausalEdge{Resource: ResSearch.String(), Dur: d - resync},
				CausalEdge{Resource: ResResync.String(), Dur: resync})
			continue
		}
		ch.Edges = append(ch.Edges, CausalEdge{Resource: res.String(), Dur: d})
	}
	return ch, true
}

// sortedComplete returns the completed keys in ascending order — the
// canonical iteration order for every analysis, independent of shard
// merge order.
func (c *Causal) sortedComplete() []uint64 {
	keys := make([]uint64, 0, len(c.keys))
	for _, k := range c.keys {
		if c.recs[k].complete() {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// chainLen sums a chain's edge durations, skipping the zeroed resource
// (zero < 0 keeps everything).
func chainLen(ch CausalChain, zero Resource) sim.Time {
	var total sim.Time
	zname := ""
	if zero >= 0 && zero < NumResources {
		zname = zero.String()
	}
	for _, e := range ch.Edges {
		if e.Resource == zname {
			continue
		}
		total += e.Dur
	}
	return total
}

// longestPath runs the critical-path DP over the cause DAG with the
// given resource zeroed (zero < 0 = the real critical path). dist(K) is
// the longest path ending at K's completion: K's own chain, plus — when
// K's cause parent completed — the parent's dist and the host gap
// between the parent's completion and K's chain start. Cause links
// always point backward in sim time, but a defensive cycle guard breaks
// any malformed link rather than recursing forever.
func (c *Causal) longestPath(keys []uint64, chains map[uint64]CausalChain, zero Resource) (best sim.Time, bestKey uint64, dist map[uint64]sim.Time) {
	dist = make(map[uint64]sim.Time, len(keys))
	state := make(map[uint64]int, len(keys)) // 0 unvisited, 1 in progress, 2 done
	var visit func(k uint64) sim.Time
	visit = func(k uint64) sim.Time {
		if state[k] == 2 {
			return dist[k]
		}
		ch := chains[k]
		d := chainLen(ch, zero)
		if state[k] != 1 {
			state[k] = 1
			if ch.HasParent {
				if pch, ok := chains[ch.Parent]; ok {
					gap := ch.Start - pch.End
					if gap < 0 {
						gap = 0
					}
					if zero == ResHost {
						gap = 0
					}
					d += visit(ch.Parent) + gap
				}
			}
		}
		state[k] = 2
		dist[k] = d
		return d
	}
	first := true
	for _, k := range keys {
		d := visit(k)
		if first || d > best {
			best, bestKey, first = d, k, false
		}
	}
	return best, bestKey, dist
}

// Analyze computes the full causal report: critical path, blame, what-if
// table, and the topK slowest message chains. Returns ok=false when no
// message completed the pipeline.
func (c *Causal) Analyze(topK int) (CausalReport, bool) {
	if c == nil {
		return CausalReport{}, false
	}
	keys := c.sortedComplete()
	if len(keys) == 0 {
		return CausalReport{}, false
	}
	chains := make(map[uint64]CausalChain, len(keys))
	for _, k := range keys {
		ch, _ := c.chain(k)
		chains[k] = ch
	}
	rep := CausalReport{Messages: len(keys)}
	rep.FirstStart = chains[keys[0]].Start
	rep.LastDone = chains[keys[0]].End
	for _, k := range keys {
		if ch := chains[k]; ch.Start < rep.FirstStart {
			rep.FirstStart = ch.Start
		}
		if ch := chains[k]; ch.End > rep.LastDone {
			rep.LastDone = ch.End
		}
	}

	cp, endKey, _ := c.longestPath(keys, chains, Resource(-1))
	rep.CriticalPath = cp

	// Reconstruct the path back from the winning completion, then blame
	// each resource for its share of it.
	var durs [NumResources]sim.Time
	guard := make(map[uint64]bool, len(keys))
	for k := endKey; !guard[k]; {
		guard[k] = true
		ch := chains[k]
		rep.PathKeys = append(rep.PathKeys, k)
		for _, e := range ch.Edges {
			for res := Resource(0); res < NumResources; res++ {
				if e.Resource == res.String() {
					durs[res] += e.Dur
				}
			}
		}
		if !ch.HasParent {
			break
		}
		pch, ok := chains[ch.Parent]
		if !ok {
			break
		}
		if gap := ch.Start - pch.End; gap > 0 {
			durs[ResHost] += gap
		}
		k = ch.Parent
	}
	// Path was built completion-first; present it cause-first.
	for i, j := 0, len(rep.PathKeys)-1; i < j; i, j = i+1, j-1 {
		rep.PathKeys[i], rep.PathKeys[j] = rep.PathKeys[j], rep.PathKeys[i]
	}
	rep.Blame = apportion(durs, cp)

	for res := Resource(0); res < NumResources; res++ {
		pred, _, _ := c.longestPath(keys, chains, res)
		speedup := 1.0
		if pred > 0 {
			speedup = float64(cp) / float64(pred)
		} else if cp > 0 {
			speedup = float64(cp) // everything zeroed away; render as huge
		}
		rep.WhatIf = append(rep.WhatIf, CausalWhatIf{
			Resource: res.String(), Predicted: pred, Speedup: speedup,
		})
	}

	if topK > 0 {
		order := make([]uint64, len(keys))
		copy(order, keys)
		sort.Slice(order, func(i, j int) bool {
			a, b := chains[order[i]], chains[order[j]]
			if a.Total != b.Total {
				return a.Total > b.Total
			}
			return order[i] < order[j]
		})
		if len(order) > topK {
			order = order[:topK]
		}
		for _, k := range order {
			rep.TopK = append(rep.TopK, chains[k])
		}
	}
	return rep, true
}

// Top1 returns the slowest completed message's chain — the watchdog
// stall dump shows it so a hung run names its worst causal chain.
func (c *Causal) Top1() (CausalChain, bool) {
	if c == nil {
		return CausalChain{}, false
	}
	rep, ok := c.Analyze(1)
	if !ok || len(rep.TopK) == 0 {
		return CausalChain{}, false
	}
	return rep.TopK[0], true
}

// apportion converts per-resource durations into permille shares of
// total that sum to exactly 1000, by largest remainder (ties broken by
// resource order). Resources with zero duration still get a row, so the
// blame table shape is fixed.
func apportion(durs [NumResources]sim.Time, total sim.Time) []CausalBlame {
	out := make([]CausalBlame, NumResources)
	if total <= 0 {
		for res := Resource(0); res < NumResources; res++ {
			out[res] = CausalBlame{Resource: res.String()}
		}
		return out
	}
	rem := make([]int64, NumResources)
	assigned := 0
	for res := Resource(0); res < NumResources; res++ {
		scaled := uint64(durs[res]) * 1000
		pm := int(scaled / uint64(total))
		rem[res] = int64(scaled % uint64(total))
		out[res] = CausalBlame{Resource: res.String(), Dur: durs[res], Permille: pm}
		assigned += pm
	}
	for assigned < 1000 {
		best := -1
		for res := 0; res < int(NumResources); res++ {
			if rem[res] == 0 {
				continue
			}
			if best < 0 || rem[res] > rem[best] {
				best = res
			}
		}
		if best < 0 {
			break
		}
		out[best].Permille++
		rem[best] = 0
		assigned++
	}
	return out
}
