// The sharded matching fabric: N posted-receive ALPU instances in front
// of hash-assisted software overflow, with a hot-entry dispatch cache.
//
// A single ALPU caps at its cell count (§VI-A: 128/256); past that every
// match pays a linear software walk of the overflow suffix. The fabric
// hashes posted receives by (context, source) — match.ShardOf — across
// Config.MatchShards units, so each shard mirrors its own list prefix
// into its own device and keeps its own overflow in a match.HashList.
// Entries promote from overflow into cells through the ordinary insert
// episodes and demote back on resync, so the invariant is simply:
//
//	shard.over == shard.list[inALPU:]   (while the shard's device lives)
//
// Ordering correctness needs no cross-shard merge: an incoming header
// hashes to exactly one owner shard, an exact receive for that (context,
// source) lives in that shard, and a wildcard-source receive is broadcast
// — one copy per shard, appended under the same firmware step — so every
// candidate for any given probe lives in the probe's owner shard, in
// posting order. The per-shard oldest match is therefore the globally
// oldest match (§II). When a wildcard's copy matches in one shard, the
// siblings are purged: overflow copies unlink directly, prefix copies via
// an INVALIDATE command to the shard's device, with the tag quarantined
// in shard.stale until the device is provably quiet (a match response
// generated before the invalidate may still be in flight; consuming such
// a stale success falls back to a software resolution). See DESIGN.md
// §5.12 for the full argument.
package nic

import (
	"fmt"

	"alpusim/internal/alpu"
	"alpusim/internal/cache"
	"alpusim/internal/match"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/trace"
)

// fabricState is the NIC-side fabric bookkeeping. All mutation happens on
// the firmware process (the dispatch cache included), so fabric behaviour
// is deterministic at any partition count.
type fabricState struct {
	shards []*mirrorQueue
	// cache is the hot-entry dispatch cache: repeat (context, source)
	// lookups skip the hash-and-table hop and cost a single cycle.
	cache *cache.Cache

	wildBroadcasts uint64 // ANY_SOURCE receives replicated to every shard
	wildPurges     uint64 // completed wildcards whose siblings were purged
	staleWildHits  uint64 // device successes consumed after invalidation

	peakPosted int             // fabric-wide posted-queue high-water mark
	shardDepth trace.Histogram // owner-shard depth sampled at each post
}

// wildGroup ties the broadcast copies of one ANY_SOURCE receive together:
// copies[i] is the entry appended to shard i. Whichever copy matches
// first completes the receive; fabricResolve purges the rest.
type wildGroup struct {
	pr     *postedRecv
	copies []*match.Entry
}

// dispatchCacheGeometry is the hot-entry dispatch cache build point: 64
// lines of one 8-byte dispatch slot each, 4-way LRU — small enough to be
// a corner of NIC SRAM, large enough to hold the working set of a
// heavily-communicating tenant mix.
func dispatchCacheGeometry() cache.Config {
	return cache.Config{Size: 512, LineSize: 8, Assoc: 4, Policy: cache.LRU}
}

// dispatchRegionBase is where the shard-dispatch table lives in NIC
// memory for the cost model (the hash region sits at 0x800_0000).
const dispatchRegionBase = 0x900_0000

func dispatchAddr(bits match.Bits) uint64 {
	return dispatchRegionBase + (uint64(match.DispatchKey(bits))>>params.TagFieldBits%4096)*8
}

// dispatchShard routes a match word to its owner shard, charging the
// hot-entry cache: a hit is a single cycle, a miss pays the table load.
// The shard index itself is always computed functionally — the cache
// affects cost, never routing.
func (n *NIC) dispatchShard(e *proc.Engine, bits match.Bits) *mirrorQueue {
	q := n.fab.shards[match.ShardOf(bits, len(n.fab.shards))]
	if n.fab.cache.Access(dispatchAddr(bits), false).Hit {
		e.Cycles(1)
	} else {
		e.Cycles(4)
		e.Load(dispatchAddr(bits), 8)
	}
	return q
}

// fabricPost appends a posted receive into the fabric: exact receives go
// to their owner shard through the dispatch cache; ANY_SOURCE receives
// broadcast one copy per shard under this same firmware step, so the
// copies are adjacent in every shard's posting order.
func (n *NIC) fabricPost(e *proc.Engine, b, m match.Bits, pr *postedRecv) {
	if match.WildcardSource(m) {
		n.fab.wildBroadcasts++
		wg := &wildGroup{pr: pr}
		for _, q := range n.fab.shards {
			wg.copies = append(wg.copies, n.appendShard(e, q, b, m, wg))
		}
	} else {
		n.appendShard(e, n.dispatchShard(e, b), b, m, pr)
	}
	n.fab.peakPosted = max(n.fab.peakPosted, n.PostedLen())
}

// appendShard is appendEntry plus the shard's overflow-hash mirror: a new
// entry starts in the unloaded suffix, so it is inserted into the
// overflow hash too (promotion into cells happens in updateALPU). A
// failed-over shard has over == nil and appends into its hash shadow
// through the ordinary appendEntry path.
func (n *NIC) appendShard(e *proc.Engine, q *mirrorQueue, b, m match.Bits, req any) *match.Entry {
	entry := n.appendEntry(e, q, b, m, req)
	if q.over != nil {
		q.over.InsertOrdered(entry)
		e.Cycles(4)
		e.Store(hashBucketAddr(b), 8)
	}
	n.fab.shardDepth.Add(n.queueLen(q))
	return entry
}

// fabricResolve turns a matched posted entry into its receive record,
// purging the sibling copies first when the entry is one of a wildcard
// group's broadcasts. The sibling addrs are freed here; the matched
// copy's addr is freed by the caller like any entry.
func (n *NIC) fabricResolve(e *proc.Engine, entry *match.Entry) *postedRecv {
	wg, ok := entry.Req.(*wildGroup)
	if !ok {
		return entry.Req.(*postedRecv)
	}
	n.fab.wildPurges++
	for i, c := range wg.copies {
		if c == entry {
			continue
		}
		n.purgeSibling(e, n.fab.shards[i], c)
		n.entryAlloc.put(c.Addr)
	}
	return wg.pr
}

// purgeSibling removes one unmatched copy of a completed wildcard from
// its shard. An overflow copy unlinks from list and hash; a copy inside
// the device-mirrored prefix additionally needs its cell cleared — an
// INVALIDATE command — and its tag quarantined in q.stale until the
// device is quiet, because a match response generated before the
// invalidate may still be in flight carrying that tag.
func (n *NIC) purgeSibling(e *proc.Engine, q *mirrorQueue, c *match.Entry) {
	idx := -1 // a failed-over shard: the hash shadow is the only live structure
	if q.hash == nil {
		if idx = q.list.IndexOf(c); idx < 0 {
			panic(fmt.Sprintf("nic%d: %s lost a wildcard copy", n.id, q.name))
		}
		if idx < q.inALPU {
			for t, en := range q.tags {
				if en == c {
					delete(q.tags, t)
					q.stale[t] = true
					n.pushCommand(e, q, alpu.Command{Op: alpu.OpInvalidate, Tag: t})
					break
				}
			}
		} else {
			e.Cycles(4) // overflow hash unlink
		}
	}
	n.unlink(e, q, c, idx, -1, false)
}

// publishFabric harvests the fabric counters into the registry under
// "nic<ID>/fabric/...": the dispatch-cache hit/miss split, wildcard
// broadcast/purge activity, per-shard occupancy and overflow state, and
// the overflow promotion/demotion totals. Idempotent like the rest of
// PublishTelemetry.
func (n *NIC) publishFabric(pre string) {
	var promo, demo uint64
	for i, q := range n.fab.shards {
		sp := fmt.Sprintf("%s/fabric/shard%d", pre, i)
		q.dev.Publish(n.reg, fmt.Sprintf("%s/alpu/posted%d", pre, i))
		n.reg.Gauge(sp + "/peak_len").SetMax(int64(q.peakLen))
		n.reg.Gauge(sp + "/len").Set(int64(n.queueLen(q)))
		over := 0
		if q.over != nil {
			over = q.over.Len()
		}
		n.reg.Gauge(sp + "/overflow").Set(int64(over))
		n.reg.Counter(sp + "/promotions").Set(q.promotions)
		n.reg.Counter(sp + "/demotions").Set(q.demotions)
		promo += q.promotions
		demo += q.demotions
	}
	n.reg.Counter(pre + "/fabric/cache_hits").Set(n.fab.cache.Hits())
	n.reg.Counter(pre + "/fabric/cache_misses").Set(n.fab.cache.Misses())
	n.reg.Counter(pre + "/fabric/wild_broadcasts").Set(n.fab.wildBroadcasts)
	n.reg.Counter(pre + "/fabric/wild_purges").Set(n.fab.wildPurges)
	n.reg.Counter(pre + "/fabric/stale_wild_hits").Set(n.fab.staleWildHits)
	n.reg.Counter(pre + "/fabric/overflow_promotions").Set(promo)
	n.reg.Counter(pre + "/fabric/overflow_demotions").Set(demo)
	n.reg.Gauge(pre + "/fabric/peak_posted").SetMax(int64(n.fab.peakPosted))
	n.reg.Histogram(pre + "/fabric/shard_depth").Set(n.fab.shardDepth)
}

// fabricMaintain runs at the firmware loop top: retire stale-tag
// quarantines once their shard is provably quiet. A stale success can
// only surface through a probe outstanding when the invalidate was
// issued; with no probes outstanding and no responses pending, none can
// exist, and the tags become safe to reallocate.
func (n *NIC) fabricMaintain() {
	for _, q := range n.fab.shards {
		if len(q.stale) > 0 && len(q.probed) == 0 && len(q.pending) == 0 &&
			q.dev.Headers.Len() == 0 && q.dev.Results.Len() == 0 {
			clear(q.stale)
		}
	}
}
