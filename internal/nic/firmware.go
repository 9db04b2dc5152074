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
		if pkt, ok := n.ep.RxQ.Pop(); ok {
			n.handlePacket(e, pkt)
			continue
		}
		if req, ok := n.HostQ.Pop(); ok {
			n.handleHostReq(e, req)
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
	if n.tracer != nil {
		start := e.Now()
		defer func() {
			// A torn-down world (sim.Engine.Close) unwinds mid-packet;
			// the packet never finished, so it records no span.
			if !e.P.Killed() {
				n.tracer.Span(n.cfg.ID, tidFirmware, "fw", "pkt "+pkt.Kind.String(), start, e.Now())
			}
		}()
	}
	switch pkt.Kind {
	case network.Eager, network.RTS:
		key := uint64(match.Pack(pkt.Hdr))
		n.causal.Stamp(key, telemetry.StampFwPop, e.Now())
		if n.tracer != nil {
			// Terminate the cross-rank flow arrow started at the sender's
			// firmware (the flow id is the packed envelope, globally unique).
			n.tracer.FlowEnd(n.cfg.ID, tidFirmware, "mpi", "msg", e.Now(), key)
		}
		if n.admittedHdrs > 0 {
			// This header no longer counts against the reliability engine's
			// unexpected-queue admission bound: from here it either matches
			// or joins the queue itself.
			n.admittedHdrs--
		}
		e.Cycles(params.HeaderProcessCycles)
		searchT0, faults0 := e.Now(), n.faultEvents
		entry, mq := n.matchPosted(e, pkt)
		n.annotateFaultSearch(mq, key, searchT0, faults0, e.Now())
		n.matchLat.Add(int((e.Now() - searchT0) / (64 * sim.Nanosecond)))
		if entry != nil {
			n.stats.PostedMatches++
			n.causal.Stamp(key, telemetry.StampMatch, e.Now())
			pr := n.fabricResolve(e, entry)
			n.entryAlloc.put(entry.Addr)
			n.deliverMatched(e, pkt, pr)
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
			n.noteError(&ProtocolError{NIC: n.cfg.ID, Op: "cts-unknown-send",
				Detail: fmt.Sprintf("CTS for unknown send %d from nic%d", pkt.SenderReq, pkt.Src)})
			return
		}
		delete(n.pendingSends, pkt.SenderReq)
		done := n.dmaTx.Transfer(e.Now(), s.req.Size)
		data := network.Packet{
			Kind: network.Data, Src: n.cfg.ID, Dst: pkt.Src,
			Size: s.req.Size, RecvReq: pkt.RecvReq,
		}
		n.eng.At(done, func() { n.send(data) })
		e.Cycles(params.CompletionCycles)
		n.complete(s.req.ID, done, CompletionStatus{})

	case network.Data:
		e.Cycles(params.HeaderProcessCycles)
		done := n.dmaRx.Transfer(e.Now(), pkt.Size)
		e.Cycles(params.CompletionCycles)
		st := n.rndvStatus[pkt.RecvReq]
		delete(n.rndvStatus, pkt.RecvReq)
		n.complete(pkt.RecvReq, done, st)
	}
}

// deliverMatched completes the receive side of a message that matched a
// posted receive: eager data DMAs straight to the host buffer; a
// rendezvous request gets a CTS.
func (n *NIC) deliverMatched(e *proc.Engine, pkt network.Packet, pr *postedRecv) {
	if pkt.Kind == network.Eager {
		done := n.dmaRx.Transfer(e.Now(), pkt.Size)
		e.Cycles(params.CompletionCycles)
		n.stampCompletion(pkt.Hdr, done)
		n.complete(pr.req.ID, done, statusOf(pkt.Hdr, pkt.Size))
		return
	}
	e.Cycles(params.CompletionCycles)
	n.rndvStatus[pr.req.ID] = statusOf(pkt.Hdr, pkt.Size)
	n.send(network.Packet{
		Kind: network.CTS, Src: n.cfg.ID, Dst: pkt.Src,
		SenderReq: pkt.SenderReq, RecvReq: pr.req.ID,
	})
}

// addUnexpected appends an arrived message to the unexpected queue (§V-C:
// "entered on the unexpectedQ, to be matched against future receives").
func (n *NIC) addUnexpected(e *proc.Engine, pkt network.Packet) {
	um := &unexMsg{pkt: pkt}
	if pkt.Kind == network.Eager && pkt.Size > 0 {
		// Buffer the eager payload in NIC-attached memory.
		n.dmaRx.Transfer(e.Now(), pkt.Size)
		um.bufLen = pkt.Size
	}
	n.appendEntry(e, &n.unexp, match.Pack(pkt.Hdr), match.FullMask, um)
}

var reqSpanNames = map[ReqKind]string{
	ReqSend: "req send", ReqRecv: "req recv", ReqProbe: "req probe",
}

// handleHostReq processes one request from the main processor.
func (n *NIC) handleHostReq(e *proc.Engine, req HostRequest) {
	n.stats.HostReqsHandled++
	if n.tracer != nil {
		start := e.Now()
		defer func() {
			if !e.P.Killed() {
				n.tracer.Span(n.cfg.ID, tidFirmware, "fw", reqSpanNames[req.Kind], start, e.Now())
			}
		}()
	}
	switch req.Kind {
	case ReqSend:
		e.Cycles(params.SendProcessCycles)
		if n.tracer != nil {
			// Open the cross-rank flow arrow for this message; the receiver's
			// firmware closes it when it pops the header.
			n.tracer.FlowStart(n.cfg.ID, tidFirmware, "mpi", "msg", e.Now(), uint64(match.Pack(req.Hdr)))
		}
		if req.Size <= params.EagerLimit {
			done := n.dmaTx.Transfer(e.Now(), req.Size)
			pkt := network.Packet{
				Kind: network.Eager, Src: n.cfg.ID, Dst: req.Dst,
				Hdr: req.Hdr, Size: req.Size,
			}
			n.eng.At(done, func() { n.send(pkt) })
			e.Cycles(params.CompletionCycles)
			// An eager send completes locally once the data has left the
			// host buffer.
			n.complete(req.ID, done, CompletionStatus{})
			return
		}
		n.pendingSends[req.ID] = &sendState{req: req}
		n.send(network.Packet{
			Kind: network.RTS, Src: n.cfg.ID, Dst: req.Dst,
			Hdr: req.Hdr, Size: req.Size, SenderReq: req.ID,
		})

	case ReqProbe:
		e.Cycles(params.PostProcessCycles)
		// Non-consuming search: the ALPU cannot answer (delete-on-match),
		// so the firmware walks the full software copy even when a unit
		// is fitted.
		b, m := match.PackRecv(req.Recv)
		st := CompletionStatus{}
		if entry := n.peekUnexpected(e, b, m); entry != nil {
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
		entry := n.matchUnexpected(e, req)
		if entry == nil {
			pr := &postedRecv{req: req}
			b, m := match.PackRecv(req.Recv)
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
		if um.pkt.Kind == network.Eager {
			// Copy the buffered payload to the host buffer.
			done := n.dmaRx.Transfer(e.Now(), um.pkt.Size)
			e.Cycles(params.CompletionCycles)
			n.stampCompletion(um.pkt.Hdr, done)
			n.complete(req.ID, done, statusOf(um.pkt.Hdr, um.pkt.Size))
			return
		}
		e.Cycles(params.CompletionCycles)
		n.rndvStatus[req.ID] = statusOf(um.pkt.Hdr, um.pkt.Size)
		n.send(network.Packet{
			Kind: network.CTS, Src: n.cfg.ID, Dst: um.pkt.Src,
			SenderReq: um.pkt.SenderReq, RecvReq: req.ID,
		})
	}
}

// matchPosted finds and removes the posted receive matching an incoming
// header, or returns nil (-> unexpected), along with the queue it was
// resolved against (the owner shard under the fabric).
func (n *NIC) matchPosted(e *proc.Engine, pkt network.Packet) (*match.Entry, *mirrorQueue) {
	probe := match.Pack(pkt.Hdr)
	q := &n.posted
	if n.fab != nil {
		// Every candidate for this header — its (context, source) exact
		// receives and one copy of every wildcard — lives in the owner
		// shard, in posting order, so the shard search is the whole search.
		q = n.dispatchShard(e, probe)
	}
	if q.engaged {
		// A packet can slip past the engagement point unprobed (it was
		// already queued when the firmware engaged the unit mid-loop);
		// the firmware then injects the probe itself over the bus.
		if !q.probed[pkt.Seq] {
			e.BusTransaction(params.ALPUCommandCycles)
			q.dev.PushProbe(alpu.Probe{Bits: probe, Meta: pkt.Seq})
			q.probed[pkt.Seq] = true
		}
		r, from, ok := n.resultFor(e, q, pkt.Seq)
		if !ok {
			// The device never answered: strike, repair (resync or failover),
			// and resolve this match entirely in software.
			n.deviceFault(e, q, "result-timeout",
				fmt.Sprintf("no response for packet seq %d", pkt.Seq))
			return n.softwareMatch(e, q, probe, match.FullMask), q
		}
		if r.Kind == alpu.RespMatchSuccess {
			if q.stale[r.Tag] {
				// The success was generated before an INVALIDATE for this tag
				// was processed: the device consumed a purged wildcard copy.
				// The cell is gone either way (the pending INVALIDATE finds
				// nothing and no-ops); resolve the probe against the list,
				// which no longer holds the purged copy.
				delete(q.stale, r.Tag)
				n.fab.staleWildHits++
				n.stats.ALPUPostedMisses++
				return n.fallbackSearch(e, q, alpu.Probe{Bits: probe, Meta: pkt.Seq}, probe, match.FullMask, 0), q
			}
			n.stats.ALPUPostedHits++
			n.noteDeviceSuccess(q)
			return n.consumeALPUMatch(e, q, r.Tag, probe, match.FullMask), q
		}
		n.stats.ALPUPostedMisses++
		// §IV-D: on MATCH FAILURE, search only the portion of the list
		// that had not been loaded into the ALPU when the failure was
		// generated.
		return n.fallbackSearch(e, q, alpu.Probe{Bits: probe, Meta: pkt.Seq}, probe, match.FullMask, from), q
	}
	if q.hash != nil {
		return n.searchRemoveHash(e, q, probe, match.FullMask), q
	}
	return n.searchRemoveShard(e, q, probe, match.FullMask), q
}

// matchUnexpected finds and removes the unexpected message matching a
// receive being posted, or returns nil.
func (n *NIC) matchUnexpected(e *proc.Engine, req HostRequest) *match.Entry {
	b, m := match.PackRecv(req.Recv)
	if n.unexp.engaged {
		if !n.unexp.probed[req.ID] {
			e.BusTransaction(params.ALPUCommandCycles)
			n.unexp.dev.PushProbe(alpu.Probe{Bits: b, Mask: m, Meta: req.ID})
			n.unexp.probed[req.ID] = true
		}
		r, from, ok := n.resultFor(e, &n.unexp, req.ID)
		if !ok {
			n.deviceFault(e, &n.unexp, "result-timeout",
				fmt.Sprintf("no response for request %d", req.ID))
			return n.softwareMatch(e, &n.unexp, b, m)
		}
		if r.Kind == alpu.RespMatchSuccess {
			n.stats.ALPUUnexpHits++
			n.noteDeviceSuccess(&n.unexp)
			return n.consumeALPUMatch(e, &n.unexp, r.Tag, b, m)
		}
		n.stats.ALPUUnexpMisses++
		return n.fallbackSearch(e, &n.unexp, alpu.Probe{Bits: b, Mask: m, Meta: req.ID}, b, m, from)
	}
	if n.unexp.hash != nil {
		return n.searchRemoveHash(e, &n.unexp, b, m)
	}
	return n.searchRemoveList(e, &n.unexp, b, m, 0)
}

// consumeALPUMatch resolves an ALPU MATCH SUCCESS tag to the shadow-list
// entry (§IV-B: the tag points into the processor's copy) and unlinks it.
// An unknown tag means the hardware/software mirror diverged; that is
// recoverable — the match is resolved in software over the full list —
// so it is counted rather than fatal. bits/mask are the original probe,
// needed for that software resolution.
func (n *NIC) consumeALPUMatch(e *proc.Engine, q *mirrorQueue, tag uint32, bits, mask match.Bits) *match.Entry {
	entry := q.tags[tag]
	if entry == nil {
		n.noteError(&ProtocolError{NIC: n.cfg.ID, Op: "alpu-unknown-tag",
			Detail: fmt.Sprintf("%s ALPU returned unknown tag %d", q.name, tag)})
		idx := n.searchShard(e, q, bits, mask, 0)
		if idx < 0 {
			return nil
		}
		q.depths.Add(idx)
		entry = q.list.At(idx)
		inOver := idx >= q.inALPU
		if !inOver {
			// The entry was inside the mirrored prefix; keep the pointer
			// consistent with the unit having consumed its copy.
			q.inALPU--
		}
		e.Cycles(8)
		q.removeAt(idx)
		if inOver {
			q.dropOverflow(entry)
		}
		return entry
	}
	delete(q.tags, tag)
	// Fetch the entry directly by pointer — no traversal (§VI-B: "the
	// returned tag can be used to point directly to the matching list
	// item").
	e.Load(entry.Addr, params.QueueEntryBytes)
	e.Prefetch(entry.Addr+uint64(params.QueueEntryBytes), params.QueueEntryFullBytes-params.QueueEntryBytes, false)
	idx := q.list.IndexOf(entry)
	if idx < 0 || idx >= q.inALPU {
		if !n.devFaultsOn() {
			panic(fmt.Sprintf("nic%d: %s ALPU matched entry outside the ALPU prefix (idx %d, inALPU %d)",
				n.cfg.ID, q.name, idx, q.inALPU))
		}
		// A fault knocked the mirror askew (e.g. a stale success resolved
		// after a resync): the shadow list is the truth, so resolve there
		// and schedule a resync to realign the device.
		n.noteDeviceFault(q, "prefix-mismatch",
			fmt.Sprintf("tag %d resolved to idx %d, inALPU %d", tag, idx, q.inALPU))
		if idx < 0 {
			idx = n.searchShard(e, q, bits, mask, 0)
			if idx < 0 {
				return nil
			}
			entry = q.list.At(idx)
		}
		q.depths.Add(idx)
		inOver := idx >= q.inALPU
		e.Cycles(8)
		q.removeAt(idx)
		if inOver {
			q.dropOverflow(entry)
		}
		return entry
	}
	q.depths.Add(idx)
	q.removeAt(idx)
	q.inALPU--
	e.Cycles(8) // list unlink bookkeeping
	return entry
}

// searchList traverses the software list from index `from`, charging the
// per-entry cost through the cache model, and returns the index of the
// first match, or -1.
func (n *NIC) searchList(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, from int) int {
	for i := from; i < q.list.Len(); i++ {
		entry := q.list.At(i)
		// The match line is the demand load; the rest of the entry is
		// fetched under its miss (it still occupies the cache).
		e.LoadOverlapped(entry.Addr, params.QueueEntryBytes, params.TraverseCyclesPerEntry)
		e.Prefetch(entry.Addr+uint64(params.QueueEntryBytes), params.QueueEntryFullBytes-params.QueueEntryBytes, false)
		n.stats.EntriesTraversed++
		if match.Matches(entry.Bits, entry.Mask, bits, mask) {
			return i
		}
	}
	return -1
}

// peekUnexpected finds the first matching unexpected message without
// unlinking it (the MPI_Probe path), whatever the queue organisation.
func (n *NIC) peekUnexpected(e *proc.Engine, bits, mask match.Bits) *match.Entry {
	q := &n.unexp
	if q.hash != nil {
		entry, _ := n.findHash(e, q, bits, mask)
		return entry
	}
	if idx := n.searchList(e, q, bits, mask, 0); idx >= 0 {
		return q.list.At(idx)
	}
	return nil
}

// searchRemoveList is searchList plus unlinking of the match.
func (n *NIC) searchRemoveList(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits, from int) *match.Entry {
	i := n.searchList(e, q, bits, mask, from)
	if i < 0 {
		return nil
	}
	q.depths.Add(i)
	entry := q.list.At(i)
	e.Cycles(8)
	q.removeAt(i)
	return entry
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
func (n *NIC) fallbackSearch(e *proc.Engine, q *mirrorQueue, probe alpu.Probe, bits, mask match.Bits, from int) *match.Entry {
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
	idx := n.searchShard(e, q, bits, mask, from)
	if idx < 0 {
		return nil
	}
	q.depths.Add(idx)
	entry := q.list.At(idx)
	if idx < q.inALPU {
		n.stats.ALPUPurges++
		key := n.nextPurgeKey()
		probe.Meta = key
		e.BusTransaction(params.ALPUCommandCycles)
		q.dev.PushProbe(probe)
		q.probed[key] = true
		r, _, ok := n.resultFor(e, q, key)
		switch {
		case !ok:
			n.deviceFault(e, q, "purge-timeout", "no response to purge probe")
		case r.Kind == alpu.RespMatchSuccess && q.tags[r.Tag] == entry:
			delete(q.tags, r.Tag)
			q.inALPU--
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
			if !n.devFaultsOn() {
				panic(fmt.Sprintf("nic%d: %s purge probe missed the stale entry", n.cfg.ID, q.name))
			}
			// The stale copy vanished from the device (quarantined by the
			// scrubber): the mirror is off by at least one entry — resync.
			n.deviceFault(e, q, "purge-miss", "purge probe found no stale copy")
		default:
			if !n.devFaultsOn() {
				panic(fmt.Sprintf("nic%d: %s purge consumed tag %d, not the stale entry", n.cfg.ID, q.name, r.Tag))
			}
			delete(q.tags, r.Tag)
			n.deviceFault(e, q, "purge-mismatch", "purge probe consumed a different entry")
		}
	}
	e.Cycles(8)
	q.removeAt(idx)
	// A fabric shard's overflow hash holds the entry if it lay past the
	// prefix, or if a resync above demoted the whole prefix into it.
	q.dropOverflow(entry)
	if q.alpuDead && q.hash != nil {
		// A failover during the purge rebuilt the hash shadow from the list
		// with this entry still in it; keep the shadow exact.
		q.hash.Remove(entry)
	}
	return entry
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

// findHash finds the first match in q's hash organisation without
// unlinking it, charging each search step as a bucket-head probe (hash
// compute + load), and returns the match with its step count.
func (n *NIC) findHash(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits) (*match.Entry, uint64) {
	before := q.hash.SearchSteps
	entry := q.hash.FindFirst(bits, mask)
	steps := q.hash.SearchSteps - before
	for s := uint64(0); s < steps; s++ {
		e.Cycles(4)
		e.Load(hashBucketAddr(bits+match.Bits(s)), 8)
	}
	n.stats.EntriesTraversed += steps
	return entry, steps
}

// searchRemoveHash is the §II hash-organisation search path (ablation).
func (n *NIC) searchRemoveHash(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits) *match.Entry {
	entry, steps := n.findHash(e, q, bits, mask)
	if entry == nil {
		return nil
	}
	q.depths.Add(int(steps))
	e.Load(entry.Addr, params.QueueEntryBytes)
	e.Prefetch(entry.Addr+uint64(params.QueueEntryBytes), params.QueueEntryFullBytes-params.QueueEntryBytes, false)
	e.Cycles(12) // bucket unlink is costlier than list unlink
	q.hash.Remove(entry)
	return entry
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
	if !n.cfg.UseALPU {
		return false
	}
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
	if q.alpuDead || (n.devFaultsOn() && n.eng.Now() < q.retryAt) {
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

	e.BusTransaction(params.ALPUCommandCycles)
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpStartInsert})
	n.stats.InsertEpisodes++

	// Drain results until the START ACKNOWLEDGE; anything else is a match
	// result for a header we have not processed yet (§IV-C).
	var free int
	for {
		r, ok := n.readResult(e, q)
		if !ok {
			// The acknowledge never came: strike and abort the episode. The
			// repair's STOP INSERT unwinds whatever state the device is in.
			n.deviceFault(e, q, "ack-timeout", "START ACKNOWLEDGE timed out")
			return true
		}
		if r.Kind == alpu.RespStartAck {
			free = r.Free
			break
		}
		q.pending = append(q.pending, stashedResp{r: r, from: q.inALPU})
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
		e.BusTransaction(params.ALPUCommandCycles)
		n.pushCommand(e, q, alpu.Command{Op: alpu.OpInsert, Bits: entry.Bits, Mask: entry.Mask, Tag: tag})
		n.stats.ALPUInserts++
		// §IV-C: periodically clear the result FIFO of successful matches
		// that occur during the insert process to prevent it filling.
		if q.dev.Results.Len() > q.dev.Results.Cap()/2 {
			n.drainResults(e, q)
		}
	}
	e.BusTransaction(params.ALPUCommandCycles)
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpStopInsert})
	q.inALPU += k
	n.noteDeviceSuccess(q)
	return k > 0
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

// pushCommand writes one command into the device command FIFO, respecting
// backpressure (the bus write itself was already charged by the caller).
// While the FIFO is full the result FIFO is drained into the pending
// stash: header copies flow to the device in hardware, so it can be
// blocked pushing a match result at the very moment the firmware needs
// command space — each side waiting on the other's FIFO. Draining here is
// the §IV-C mid-episode discipline applied to every backpressured
// command, and breaks that cycle.
func (n *NIC) pushCommand(e *proc.Engine, q *mirrorQueue, c alpu.Command) {
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
		q.pending = append(q.pending, stashedResp{r: r, from: q.inALPU})
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
		if meta, ok := st.r.Probe.Meta.(uint64); ok && meta == key {
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
		if meta, ok := r.Probe.Meta.(uint64); ok && meta == key {
			return r, q.inALPU, true
		}
		q.pending = append(q.pending, stashedResp{r: r, from: q.inALPU})
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

// softwareMatch resolves a match entirely in software after the device
// path failed: the hash shadow when the queue has failed over, else a
// full list search. The immediately preceding repair left inALPU at zero
// (resync) or the unit permanently disengaged (failover), so no stale
// device copy can survive the removal.
func (n *NIC) softwareMatch(e *proc.Engine, q *mirrorQueue, bits, mask match.Bits) *match.Entry {
	if q.hash != nil {
		return n.searchRemoveHash(e, q, bits, mask)
	}
	return n.searchRemoveShard(e, q, bits, mask)
}
