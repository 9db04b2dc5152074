package nic

import (
	"fmt"

	"alpusim/internal/alpu"
	"alpusim/internal/match"
	"alpusim/internal/network"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// firmware is the NIC processor's supervisor: it runs the §V-C main loop
// and, when crash injection unwinds it, models the embedded processor
// rebooting — a restart delay, then device state replay from the shadow
// queues before the loop resumes. No queued work is lost across a crash
// (injection fires before anything is popped).
func (n *NIC) firmware(p *sim.Process) {
	for n.fwSession(p) {
		p.Sleep(fwRestartDelay)
		n.recoverFirmware()
	}
}

// fwSession is the NIC processor's main loop (§V-C): check the network
// for incoming messages, check for new host requests, and update the
// ALPUs, repeatedly. All costs are charged through the proc.Engine, so
// list traversals exercise the cache/DRAM model. Returns true only when
// an injected FirmwareCrash unwound the loop; any other panic propagates.
func (n *NIC) fwSession(p *sim.Process) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*FirmwareCrash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	e := proc.New(p, n.cpu, n.mem)
	for {
		n.maintainDevices(e)
		if n.fab != nil {
			n.fabricMaintain()
		}
		if n.crashRng != nil && (n.ep.RxQ.Len() > 0 || n.HostQ.Len() > 0) {
			n.maybeCrash()
		}
		// Each work item's span is recorded once its handler returns: a
		// torn-down world (sim.Engine.Close) unwinds mid-item, and an
		// unfinished item records nothing.
		if pkt, ok := n.ep.RxQ.Pop(); ok {
			start := e.Now()
			n.handlePacket(e, pkt)
			if n.tracer != nil {
				n.tracer.Span(n.id, tidFirmware, "fw", "pkt "+pkt.Kind.String(), start, e.Now())
			}
			continue
		}
		if req, ok := n.HostQ.Pop(); ok {
			start := e.Now()
			n.handleHostReq(e, req)
			if n.tracer != nil {
				n.tracer.Span(n.id, tidFirmware, "fw", reqSpanNames[req.Kind], start, e.Now())
			}
			continue
		}
		if n.updateALPUs(e) {
			continue
		}
		p.WaitCond(n.kick, func() bool {
			return n.ep.RxQ.Len() > 0 || n.HostQ.Len() > 0
		})
		// The polling iteration that discovers the new work.
		e.Cycles(params.PollIterationCycles)
	}
}

// handlePacket processes one incoming network packet.
func (n *NIC) handlePacket(e *proc.Engine, pkt network.Packet) {
	n.stats.PacketsHandled++
	switch pkt.Kind {
	case network.Eager, network.RTS:
		bits := match.Pack(pkt.Hdr)
		key := uint64(bits)
		n.causal.Stamp(key, telemetry.StampFwPop, e.Now())
		if n.tracer != nil {
			// Terminate the cross-rank flow arrow started at the sender's
			// firmware (the flow id is the packed envelope, globally unique).
			n.tracer.FlowEnd(n.id, tidFirmware, "mpi", "msg", e.Now(), key)
		}
		if n.admittedHdrs > 0 {
			// This header no longer counts against the reliability engine's
			// unexpected-queue admission bound: from here it either matches
			// or joins the queue itself.
			n.admittedHdrs--
		}
		e.Cycles(params.HeaderProcessCycles)
		searchT0, faults0 := e.Now(), n.faultEvents
		q := &n.posted
		if n.fab != nil {
			// Every candidate for this header — its (context, source) exact
			// receives and one copy of every wildcard — lives in the owner
			// shard, in posting order, so the shard search is the whole search.
			q = n.dispatchShard(e, bits)
		}
		entry := n.match(e, q, bits, match.FullMask, pkt.Seq)
		n.annotateFaultSearch(q, key, searchT0, faults0, e.Now())
		n.matchLat.Add(int((e.Now() - searchT0) / (64 * sim.Nanosecond)))
		if entry != nil {
			n.stats.PostedMatches++
			n.causal.Stamp(key, telemetry.StampMatch, e.Now())
			pr := n.fabricResolve(e, entry)
			n.entryAlloc.put(entry.Addr)
			n.deliver(e, pkt, pr.req.ID)
			return
		}
		n.stats.Unexpected++
		n.addUnexpected(e, pkt)

	case network.CTS:
		e.Cycles(params.HeaderProcessCycles)
		s := n.pendingSends[pkt.SenderReq]
		if s == nil {
			// A CTS for a send we no longer (or never) track: stale control
			// traffic, e.g. after a peer recovered through retransmission.
			// Recoverable — count it and drop the packet.
			n.noteError(&ProtocolError{NIC: n.id, Op: "cts-unknown-send",
				Detail: fmt.Sprintf("CTS for unknown send %d from nic%d", pkt.SenderReq, pkt.Src)})
			return
		}
		delete(n.pendingSends, pkt.SenderReq)
		n.sendPayload(e, network.Packet{
			Kind: network.Data, Src: n.id, Dst: pkt.Src,
			Size: s.req.Size, RecvReq: pkt.RecvReq,
		}, s.req.ID)

	case network.Data:
		e.Cycles(params.HeaderProcessCycles)
		done := n.dmaRx.Transfer(e.Now(), pkt.Size)
		e.Cycles(params.CompletionCycles)
		st := n.rndvStatus[pkt.RecvReq]
		delete(n.rndvStatus, pkt.RecvReq)
		n.complete(pkt.RecvReq, done, st)
	}
}

// sendPayload DMAs a send's payload out of the host buffer, puts pkt on
// the wire once the DMA is done, and completes send reqID: an eager
// message, or a rendezvous DATA once its CTS came back. A send completes
// locally once the data has left the host buffer.
func (n *NIC) sendPayload(e *proc.Engine, pkt network.Packet, reqID uint64) {
	done := n.dmaTx.Transfer(e.Now(), pkt.Size)
	n.eng.At(done, func() { n.send(pkt) })
	e.Cycles(params.CompletionCycles)
	n.complete(reqID, done, CompletionStatus{})
}

// deliver completes receive reqID, matched to the arrived message pkt
// from either side: a header that matched a posted receive, or a receive
// that matched an unexpected message. Eager data DMAs to the host buffer
// (from NIC memory when the message waited on the unexpected queue); a
// rendezvous sender gets a CTS.
func (n *NIC) deliver(e *proc.Engine, pkt network.Packet, reqID uint64) {
	if pkt.Kind == network.Eager {
		done := n.dmaRx.Transfer(e.Now(), pkt.Size)
		e.Cycles(params.CompletionCycles)
		n.stampCompletion(pkt.Hdr, done)
		n.complete(reqID, done, statusOf(pkt.Hdr, pkt.Size))
		return
	}
	e.Cycles(params.CompletionCycles)
	n.rndvStatus[reqID] = statusOf(pkt.Hdr, pkt.Size)
	n.send(network.Packet{
		Kind: network.CTS, Src: n.id, Dst: pkt.Src,
		SenderReq: pkt.SenderReq, RecvReq: reqID,
	})
}

// addUnexpected appends an arrived message to the unexpected queue (§V-C:
// "entered on the unexpectedQ, to be matched against future receives").
func (n *NIC) addUnexpected(e *proc.Engine, pkt network.Packet) {
	if pkt.Kind == network.Eager && pkt.Size > 0 {
		// Buffer the eager payload in NIC-attached memory.
		n.dmaRx.Transfer(e.Now(), pkt.Size)
	}
	n.appendEntry(e, &n.unexp, match.Pack(pkt.Hdr), match.FullMask, &unexMsg{pkt: pkt})
}

var reqSpanNames = map[ReqKind]string{
	ReqSend: "req send", ReqRecv: "req recv", ReqProbe: "req probe",
}

// handleHostReq processes one request from the main processor.
func (n *NIC) handleHostReq(e *proc.Engine, req HostRequest) {
	n.stats.HostReqsHandled++
	switch req.Kind {
	case ReqSend:
		e.Cycles(params.SendProcessCycles)
		if n.tracer != nil {
			// Open the cross-rank flow arrow for this message; the receiver's
			// firmware closes it when it pops the header.
			n.tracer.FlowStart(n.id, tidFirmware, "mpi", "msg", e.Now(), uint64(match.Pack(req.Hdr)))
		}
		if req.Size <= params.EagerLimit {
			n.sendPayload(e, network.Packet{
				Kind: network.Eager, Src: n.id, Dst: req.Dst,
				Hdr: req.Hdr, Size: req.Size,
			}, req.ID)
			return
		}
		n.pendingSends[req.ID] = &sendState{req: req}
		n.send(network.Packet{
			Kind: network.RTS, Src: n.id, Dst: req.Dst,
			Hdr: req.Hdr, Size: req.Size, SenderReq: req.ID,
		})

	case ReqProbe:
		e.Cycles(params.PostProcessCycles)
		// Non-consuming search: the ALPU cannot answer (delete-on-match),
		// so the firmware walks the full software copy even when a unit
		// is fitted.
		b, m := match.PackRecv(req.Recv)
		st := CompletionStatus{}
		if entry, _, _ := n.find(e, &n.unexp, b, m, 0); entry != nil {
			um := entry.Req.(*unexMsg)
			st = statusOf(um.pkt.Hdr, um.pkt.Size)
		}
		e.Cycles(params.CompletionCycles)
		n.complete(req.ID, e.Now(), st)

	case ReqRecv:
		e.Cycles(params.PostProcessCycles)
		// §II: the unexpected-queue search and the posting must be atomic;
		// the single firmware thread guarantees it.
		searchT0, faults0 := e.Now(), n.faultEvents
		b, m := match.PackRecv(req.Recv)
		entry := n.match(e, &n.unexp, b, m, req.ID)
		if entry == nil {
			pr := &postedRecv{req: req}
			if n.fab != nil {
				n.fabricPost(e, b, m, pr)
			} else {
				n.appendEntry(e, &n.posted, b, m, pr)
			}
			return
		}
		n.stats.UnexpMatches++
		um := entry.Req.(*unexMsg)
		key := uint64(match.Pack(um.pkt.Hdr))
		n.annotateFaultSearch(&n.unexp, key, searchT0, faults0, e.Now())
		n.causal.Stamp(key, telemetry.StampMatch, e.Now())
		n.entryAlloc.put(entry.Addr)
		n.deliver(e, um.pkt, req.ID)
	}
}

// match finds and unlinks q's oldest entry matching (bits, mask), or
// returns nil. key correlates the search with the unit's response: an
// incoming header's packet sequence number on a posted queue, a posted
// receive's request id on the unexpected queue. While the unit is engaged
// its response decides (§IV-B/D): MATCH SUCCESS names the entry by tag,
// MATCH FAILURE leaves only the unloaded list suffix to search, and no
// response at all strikes the unit and resolves the match in software.
// Otherwise the whole software queue is searched.
func (n *NIC) match(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, key uint64) *match.Entry {
	if q.engaged {
		hits, misses, what := &n.stats.ALPUPostedHits, &n.stats.ALPUPostedMisses, "packet seq"
		if q == &n.unexp {
			hits, misses, what = &n.stats.ALPUUnexpHits, &n.stats.ALPUUnexpMisses, "request"
		}
		if !q.probed[key] {
			// A header or receive can slip past the engagement point
			// unprobed (it was already queued when the firmware engaged the
			// unit mid-loop); the firmware then injects the probe itself.
			n.injectProbe(e, q, bits, mask, key)
		}
		r, from, ok := n.resultFor(e, q, key)
		if ok {
			if r.Kind == alpu.RespMatchSuccess && !q.stale[r.Tag] {
				*hits++
				n.noteDeviceSuccess(q)
				return n.consumeALPUMatch(e, q, r.Tag, bits, mask)
			}
			if r.Kind == alpu.RespMatchSuccess {
				// A fabric shard's success generated before an INVALIDATE for
				// this tag was processed: the device consumed a purged
				// wildcard copy. The cell is gone either way (the pending
				// INVALIDATE finds nothing and no-ops); resolve the probe
				// against the list, which no longer holds the purged copy.
				delete(q.stale, r.Tag)
				n.fab.staleWildHits++
				from = 0
			}
			*misses++
			// §IV-D: on MATCH FAILURE, search only the portion of the list
			// that had not been loaded into the ALPU when the failure was
			// generated.
			return n.fallbackSearch(e, q, bits, mask, from)
		}
		// The device never answered: strike and repair. The repair leaves
		// the pointer at zero (resync) or the queue on its hash shadow
		// (failover), so the software search below cannot leave a stale
		// device copy behind.
		n.deviceFault(e, q, "result-timeout", fmt.Sprintf("no response for %s %d", what, key))
	}
	entry, idx, depth := n.find(e, q, bits, mask, 0)
	if entry == nil {
		return nil
	}
	if idx < 0 {
		// A hash bucket pointed at the entry; fetch it.
		fetchEntry(e, entry)
	}
	n.unlink(e, q, entry, idx, depth, false)
	return entry
}

// consumeALPUMatch resolves an ALPU MATCH SUCCESS tag to the shadow-list
// entry (§IV-B: the tag points into the processor's copy) and unlinks it.
// An unknown tag means the hardware/software mirror diverged; that is
// recoverable — the match is resolved in software over the full list —
// so it is counted rather than fatal. bits/mask are the original probe,
// needed for that software resolution.
func (n *NIC) consumeALPUMatch(e *proc.Engine, q *mirrorQueue, tag uint32, bits, mask match.Bits) *match.Entry {
	entry, idx := q.tags[tag], -1
	if entry == nil {
		n.noteError(&ProtocolError{NIC: n.id, Op: "alpu-unknown-tag",
			Detail: fmt.Sprintf("%s ALPU returned unknown tag %d", q.name, tag)})
	} else {
		delete(q.tags, tag)
		// Fetch the entry directly by pointer — no traversal (§VI-B: "the
		// returned tag can be used to point directly to the matching list
		// item").
		fetchEntry(e, entry)
		if idx = q.list.IndexOf(entry); idx >= 0 && idx < q.inALPU {
			n.unlink(e, q, entry, idx, idx, true)
			return entry
		}
		if !n.devFaults {
			panic(fmt.Sprintf("nic%d: %s ALPU matched entry outside the ALPU prefix (idx %d, inALPU %d)",
				n.id, q.name, idx, q.inALPU))
		}
		// A fault knocked the mirror askew (e.g. a stale success resolved
		// after a resync): the shadow list is the truth, so resolve there
		// and schedule a resync to realign the device.
		n.noteDeviceFault(q, "prefix-mismatch",
			fmt.Sprintf("tag %d resolved to idx %d, inALPU %d", tag, idx, q.inALPU))
	}
	if idx < 0 {
		if entry, idx, _ = n.find(e, q, bits, mask, 0); entry == nil {
			return nil
		}
	}
	n.unlink(e, q, entry, idx, idx, false)
	return entry
}

// fetchEntry charges a load of an entry reached by pointer: its match
// line, and the rest of the entry under that line's miss.
func fetchEntry(e *proc.Engine, entry *match.Entry) {
	e.Load(entry.Addr, params.QueueEntryBytes)
	e.Prefetch(entry.Addr+uint64(params.QueueEntryBytes), params.QueueEntryFullBytes-params.QueueEntryBytes, false)
}

// find returns q's oldest entry matching (bits, mask), charging the search
// through the cost model, and unlinks nothing. The list is walked entry by
// entry from index from — on a fabric shard only up to the end of its
// device-mirrored prefix — and a hash costs one bucket probe per search
// step: a shard's overflow hash past the prefix, or the §II hash
// organisation, which holds the whole queue and ignores from. It returns
// the entry's list index (-1 on the hash organisation) and its depth: the
// list index, or the hash steps taken.
func (n *NIC) find(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, from int) (entry *match.Entry, idx, depth int) {
	h, limit := q.over, q.list.Len()
	switch {
	case q.hash != nil:
		h, limit = q.hash, 0
	case h != nil:
		limit = min(limit, q.inALPU)
	}
	for i := from; i < limit; i++ {
		entry = q.list.At(i)
		// The match line is the demand load; the rest of the entry is
		// fetched under its miss (it still occupies the cache).
		e.LoadOverlapped(entry.Addr, params.QueueEntryBytes, params.TraverseCyclesPerEntry)
		e.Prefetch(entry.Addr+uint64(params.QueueEntryBytes), params.QueueEntryFullBytes-params.QueueEntryBytes, false)
		n.stats.EntriesTraversed++
		if match.Matches(entry.Bits, entry.Mask, bits, mask) {
			return entry, i, i
		}
	}
	if h == nil {
		return nil, -1, 0
	}
	before := h.SearchSteps
	entry = h.FindFirst(bits, mask)
	steps := h.SearchSteps - before
	for s := uint64(0); s < steps; s++ {
		e.Cycles(4)
		e.Load(hashBucketAddr(bits+match.Bits(s)), 8)
	}
	n.stats.EntriesTraversed += steps
	if entry == nil || h == q.hash {
		return entry, -1, int(steps)
	}
	// Overflow entries are strictly younger than prefix entries, so the
	// first overflow match is the oldest past the walk (§II ordering).
	idx = q.list.IndexOf(entry)
	return entry, idx, idx
}

// unlink removes a located entry from q: the list entry at idx — keeping
// the not-in-ALPU pointer and a fabric shard's overflow hash exact — or,
// on the hash organisation (idx < 0), the entry itself, and charges the
// unlink bookkeeping. A match records depth in q's match-depth histogram;
// a purge passes depth < 0 and records nothing. consumed marks an entry
// the unit matched itself (MATCH SUCCESS): the shadow list drops it
// before the bookkeeping is charged, where a searched entry is charged
// first.
func (n *NIC) unlink(e *proc.Engine, q *mirrorQueue, entry *match.Entry, idx, depth int, consumed bool) {
	if depth >= 0 {
		q.depths.Add(depth)
	}
	if idx < 0 {
		e.Cycles(12) // bucket unlink is costlier than list unlink
		q.hash.Remove(entry)
		return
	}
	if !consumed {
		e.Cycles(8) // list unlink bookkeeping
	}
	q.removeAt(idx)
	if idx < q.inALPU {
		// The entry was in the mirrored prefix, whose device copy is gone
		// (consumed, purged or invalidated).
		q.inALPU--
	} else if q.over != nil {
		q.over.Remove(entry)
	}
	if consumed {
		e.Cycles(8)
	}
}

// fallbackSearch resolves a MATCH FAILURE in software. The failure
// reflects the unit's contents when it was generated, so the search
// starts from that era's not-in-ALPU pointer. If the match lands inside
// the *current* ALPU prefix, an insert episode loaded the entry after the
// failure was generated (the §IV-C race); the unit then holds a stale
// copy, which the firmware purges by re-probing: the stale entry is the
// unit's highest-priority match for this probe, so the purge consumes
// exactly it — unless a later header's probe consumed the copy first,
// which resyncs the unit.
func (n *NIC) fallbackSearch(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, from int) *match.Entry {
	if from > q.inALPU {
		from = q.inALPU
	}
	if q.needResync {
		// A strike is pending repair: the device has lost at least one
		// loaded entry (quarantined cell, dropped result), so a MATCH
		// FAILURE no longer brackets the unloaded suffix. Search the whole
		// list; a hit inside the prefix goes through the purge probe as
		// usual, which misses the vanished copy and feeds the resync.
		from = 0
	}
	entry, idx, _ := n.find(e, q, bits, mask, from)
	if entry == nil {
		return nil
	}
	if idx < q.inALPU {
		n.stats.ALPUPurges++
		key := n.nextPurgeKey()
		n.injectProbe(e, q, bits, mask, key)
		r, _, ok := n.resultFor(e, q, key)
		switch {
		case !ok:
			n.deviceFault(e, q, "purge-timeout", "no response to purge probe")
		case r.Kind == alpu.RespMatchSuccess && q.tags[r.Tag] == entry:
			delete(q.tags, r.Tag)
		case q.consumedByLaterProbe(entry):
			// The other half of the §IV-C race: while the unit was in
			// insert mode, a later header's probe matched the freshly
			// loaded copy before this purge reached the unit. Its stashed
			// MATCH SUCCESS names this entry, which the firmware order
			// gives to the earlier header, and the purge probe then took
			// the next match (or missed), which the shadow list still
			// holds. The device has lost an entry the mirror keeps, and
			// the later header's verdict is void: rebuild the unit from
			// the shadow, which also drops the stashed verdict, so the
			// later header resolves in software.
			n.resyncALPU(e, q)
		case r.Kind != alpu.RespMatchSuccess:
			if !n.devFaults {
				panic(fmt.Sprintf("nic%d: %s purge probe missed the stale entry", n.id, q.name))
			}
			// The stale copy vanished from the device (quarantined by the
			// scrubber): the mirror is off by at least one entry — resync.
			n.deviceFault(e, q, "purge-miss", "purge probe found no stale copy")
		default:
			if !n.devFaults {
				panic(fmt.Sprintf("nic%d: %s purge consumed tag %d, not the stale entry", n.id, q.name, r.Tag))
			}
			delete(q.tags, r.Tag)
			n.deviceFault(e, q, "purge-mismatch", "purge probe consumed a different entry")
		}
	}
	// After a clean purge the entry is still inside the prefix, so unlink
	// steps the pointer back; a repair above left the pointer at zero, and
	// a resync demoted the whole prefix, this entry included, into a
	// fabric shard's overflow hash, from which unlink drops it.
	n.unlink(e, q, entry, idx, idx, false)
	if q.alpuDead && q.hash != nil {
		// A failover during the purge rebuilt the hash shadow from the list
		// with this entry still in it; keep the shadow exact.
		q.hash.Remove(entry)
	}
	return entry
}

// injectProbe writes a probe for (bits, mask), correlated by key, over the
// bus into the unit's header FIFO, as the hardware does for a header it
// replicates.
func (n *NIC) injectProbe(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, key uint64) {
	e.BusTransaction(params.ALPUCommandCycles)
	q.dev.PushProbe(alpu.Probe{Bits: bits, Mask: mask, Meta: key})
	q.probed[key] = true
}

// nextPurgeKey returns a correlation key that can never collide with a
// packet sequence number or request id.
func (n *NIC) nextPurgeKey() uint64 {
	n.purgeKey++
	return n.purgeKey | 1<<63
}

// hashRegionBase is where the hash-table buckets live in NIC memory for
// the abl-hash cost model.
const hashRegionBase = 0x800_0000

func hashBucketAddr(bits match.Bits) uint64 {
	return hashRegionBase + uint64(bits%4096)*8
}

// appendEntry creates a queue entry, charges its construction, and appends
// it to the software queue.
func (n *NIC) appendEntry(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, req any) *match.Entry {
	addr := n.entryAlloc.get()
	entry := &match.Entry{Bits: bits, Mask: mask, Addr: addr, Req: req}
	e.Store(addr, params.QueueEntryBytes)
	e.Prefetch(addr+uint64(params.QueueEntryBytes), params.QueueEntryFullBytes-params.QueueEntryBytes, true)
	if q.hash != nil {
		before := q.hash.InsertSteps
		q.hash.Append(entry)
		steps := q.hash.InsertSteps - before
		// §II: "can also significantly increase the time needed to insert
		// an entry": hash compute, bucket lookup, tail update.
		e.Cycles(int64(steps) * 4)
		e.Store(hashBucketAddr(bits), 8)
	} else {
		q.list.Append(entry)
		e.Cycles(4) // tail pointer update
	}
	if l := n.queueLen(q); l > q.peakLen {
		q.peakLen = l
	}
	return entry
}

// updateALPUs performs the per-iteration ALPU maintenance of §V-C,
// returning whether any work was done.
func (n *NIC) updateALPUs(e *proc.Engine) bool {
	did := false
	for _, q := range n.alpuQueues {
		if n.updateALPU(e, q) {
			did = true
		}
	}
	return did
}

// updateALPU runs one insert episode for a queue if it has a not-yet-
// inserted suffix: START INSERT, drain results until the acknowledge,
// insert as many entries as fit, STOP INSERT (§IV-C, §V-C).
func (n *NIC) updateALPU(e *proc.Engine, q *mirrorQueue) bool {
	if q.alpuDead || (n.devFaults && n.eng.Now() < q.retryAt) {
		// Failed over, or backing off after a strike: no insert episodes.
		return false
	}
	pend := q.list.Len() - q.inALPU
	if pend <= 0 || q.list.Len() < n.cfg.Threshold {
		return false
	}
	cells := q.dev.Config().Geometry.Cells
	if q.inALPU >= cells {
		return false // ALPU prefix full; overflow stays in software
	}

	if !q.engaged {
		// Initialise the unit: enable duplicate-information delivery
		// (§IV-C). From here on probes flow in hardware.
		e.BusTransaction(params.ALPUCommandCycles)
		q.engaged = true
	}

	n.stats.InsertEpisodes++
	free, ok := n.startInsert(e, q, "ack-timeout", "START ACKNOWLEDGE timed out")
	if !ok {
		return true
	}
	k := pend
	if k > free {
		k = free
	}
	if n.cfg.InsertBatchMax > 0 && k > n.cfg.InsertBatchMax {
		k = n.cfg.InsertBatchMax
	}
	for i := 0; i < k; i++ {
		entry := q.list.At(q.inALPU + i)
		if q.over != nil {
			// The entry leaves the shard's software overflow for a cell:
			// unlink it from the overflow hash (fabric promotion).
			q.over.Remove(entry)
			q.promotions++
			e.Cycles(4)
		}
		tag := n.allocTag(q, entry)
		n.pushCommand(e, q, alpu.Command{Op: alpu.OpInsert, Bits: entry.Bits, Mask: entry.Mask, Tag: tag})
		n.stats.ALPUInserts++
		// §IV-C: periodically clear the result FIFO of successful matches
		// that occur during the insert process to prevent it filling.
		if q.dev.Results.Len() > q.dev.Results.Cap()/2 {
			n.drainResults(e, q)
		}
	}
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpStopInsert})
	q.inALPU += k
	n.noteDeviceSuccess(q)
	return k > 0
}

// startInsert opens an insert episode (§IV-C): START INSERT, then read
// results until the START ACKNOWLEDGE, which reports the free cells; any
// result ahead of it answers a header not processed yet and is stashed.
// When the acknowledge never comes, the unit is struck under op and
// repaired — the repair's STOP INSERT unwinds whatever state the device
// is in — and ok is false.
func (n *NIC) startInsert(e *proc.Engine, q *mirrorQueue, op, detail string) (free int, ok bool) {
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpStartInsert})
	for {
		r, read := n.readResult(e, q)
		if !read {
			n.deviceFault(e, q, op, detail)
			return 0, false
		}
		if r.Kind == alpu.RespStartAck {
			return r.Free, true
		}
		q.stash(r)
	}
}

// allocTag assigns a free 16-bit tag to an entry. Tags quarantined in
// q.stale (invalidated cells whose responses may still be in flight) are
// skipped so a stale MATCH SUCCESS can never alias a fresh entry.
func (n *NIC) allocTag(q *mirrorQueue, entry *match.Entry) uint32 {
	for {
		q.nextTag = (q.nextTag + 1) & 0xffff
		if _, used := q.tags[q.nextTag]; !used && !q.stale[q.nextTag] {
			q.tags[q.nextTag] = entry
			return q.nextTag
		}
	}
}

// pushCommand charges the bus write of one command and writes it into the
// device command FIFO, respecting backpressure. While the FIFO is full
// the result FIFO is drained into the pending stash: header copies flow
// to the device in hardware, so it can be blocked pushing a match result
// at the very moment the firmware needs command space — each side
// waiting on the other's FIFO. Draining here is the §IV-C mid-episode
// discipline applied to every backpressured command, and breaks that
// cycle.
func (n *NIC) pushCommand(e *proc.Engine, q *mirrorQueue, c alpu.Command) {
	e.BusTransaction(params.ALPUCommandCycles)
	for !q.dev.PushCommand(c) {
		n.drainResults(e, q)
		e.P.WaitCondAny(q.dev.Commands.NotFull, q.dev.Results.NotEmpty, func() bool {
			return !q.dev.Commands.Full() || q.dev.Results.Len() > 0
		})
	}
}

// readResult reads one response from the device result FIFO: a status
// read to see that a result is present, then the data read — two
// transactions on the 20 ns local bus. This interaction cost is what
// produces the paper's ~80 ns penalty on zero-length queues (§VI-B).
//
// Without device faults the wait is unbounded and ok is always true —
// the pre-existing behaviour, cycle for cycle. With device faults the
// wait is bounded (exponential in the queue's strike count) so a dying
// device cannot hang the firmware; FAULT responses from the device
// scrubber are absorbed here as strikes and never surface to callers.
func (n *NIC) readResult(e *proc.Engine, q *mirrorQueue) (alpu.Response, bool) {
	wait := n.resultWait(q)
	for {
		e.BusTransaction(params.ALPUStatusPollCycles)
		if q.dev.Results.Len() == 0 {
			cond := func() bool { return q.dev.Results.Len() > 0 }
			if wait == 0 {
				e.P.WaitCond(q.dev.Results.NotEmpty, cond)
			} else if !e.P.WaitCondUntil(q.dev.Results.NotEmpty, cond, wait) {
				return alpu.Response{}, false
			}
			continue
		}
		e.BusTransaction(params.ALPUResultPollCycles)
		r, ok := q.dev.Results.Pop()
		if !ok {
			continue
		}
		if r.Kind == alpu.RespFault {
			// The scrubber quarantined a corrupted cell: the device lost an
			// entry the shadow still holds. Strike; the resync at the next
			// safe point realigns the device with the shadow.
			n.failCounter("fault_responses")
			n.noteDeviceFault(q, "parity", fmt.Sprintf("device quarantined tag %d", r.Tag))
			continue
		}
		return r, true
	}
}

// drainResults moves everything currently in the result FIFO into the
// pending list (used mid-insert-episode).
func (n *NIC) drainResults(e *proc.Engine, q *mirrorQueue) {
	for {
		e.BusTransaction(params.ALPUResultPollCycles)
		r, ok := q.dev.Results.Pop()
		if !ok {
			return
		}
		q.stash(r)
	}
}

// stashedResp is a drained response stamped with the not-in-ALPU pointer
// value current when it was read: a MATCH FAILURE reflects the unit's
// contents at generation time, so its software fallback search must start
// from the pointer value of that era, not the present one.
type stashedResp struct {
	r    alpu.Response
	from int
}

// resultFor returns the response whose probe carried the given
// correlation key, consuming it from the drained-pending list or the
// result FIFO, plus the fallback search index for a failure. Responses
// for probes whose packets have not been processed yet are stashed in
// arrival order. ok is false only when device faults are configured and
// the response timed out (the caller strikes and resolves in software).
func (n *NIC) resultFor(e *proc.Engine, q *mirrorQueue, key uint64) (alpu.Response, int, bool) {
	delete(q.probed, key)
	for i, st := range q.pending {
		if st.r.Probe.Meta == key {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			e.Cycles(4)
			return st.r, st.from, true
		}
	}
	for {
		r, ok := n.readResult(e, q)
		if !ok {
			return alpu.Response{}, 0, false
		}
		if r.Probe.Meta == key {
			return r, q.inALPU, true
		}
		q.stash(r)
	}
}

// annotateFaultSearch re-attributes a match-resolution span to the
// resync/failover resource on the message's causal chain when the queue
// was degraded while it ran: a strike fired mid-resolution (faultEvents
// moved), a resync is still pending, the unit carries strikes (matching
// runs in software until a health check clears them or failover makes
// alpuDead permanent), or the unit is dead and matching runs on the hash
// shadow. Fault-free resolutions stay plain search time. The causal
// analysis clamps the annotation to the FwPop→Match gap, so
// over-approximation here cannot break telescoping.
func (n *NIC) annotateFaultSearch(q *mirrorQueue, key uint64, t0 sim.Time, faults0 uint64, now sim.Time) {
	if n.causal == nil {
		return
	}
	if n.faultEvents != faults0 || q.needResync || q.strikes > 0 || q.alpuDead {
		n.causal.Annotate(key, telemetry.ResResync, now-t0)
	}
}
