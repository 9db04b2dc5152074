package nic

import (
	"fmt"

	"alpusim/internal/network"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// This file is the NIC's link reliability engine: a go-back-N protocol
// that restores the in-order, loss-free delivery MPI matching rests on
// (§II ordering guarantee) when the network runs a fault model. It is
// modelled as NIC hardware beside the DMA engines — real RDMA NICs carry
// exactly such an ACK/retransmit engine — so its work happens at packet
// delivery time and on simulator timers, not on the firmware processor.
//
// Protocol summary:
//
//   - every data-plane packet (EAGER, RTS, CTS, DATA) carries a per
//     (src, dst) link sequence number RelSeq (1-based) and a header
//     checksum;
//   - the receiver accepts only the next in-order sequence, cumulatively
//     ACKs it, discards duplicates (re-ACKing) and corrupt packets, and
//     answers a sequence gap with a NACK naming the expected sequence
//     (go-back-N: everything past the gap was discarded);
//   - admission control: an in-order packet that would overflow the Rx
//     FIFO — or an EAGER/RTS that would overflow a bounded unexpected
//     queue — is refused with an RNR (receiver-not-ready) NACK instead of
//     being dropped on the floor or growing the queue without bound;
//   - the sender keeps a bounded window of unacknowledged packets,
//     retransmits from the NACKed sequence on NACK, backs off before
//     resuming on RNR, and retransmits the whole window on timeout with
//     exponential backoff (reset on forward progress).
//
// ACK/NACK/RNR control packets are themselves unsequenced and may be
// lost or corrupted; the timeout path recovers. The protocol never
// delivers a corrupt, duplicate, or out-of-order packet to the firmware,
// so the matching queues observe exactly the traffic a reliable network
// would have produced.

// relWindow is the go-back-N window: unacknowledged packets allowed in
// flight per peer.
const relWindow = 64

// RelStats is a snapshot of the reliability-engine activity counters for
// the chaos reports. The live counters reside in the telemetry registry
// under "nic<ID>/rel/..."; Rel() reconstructs this struct from them.
type RelStats struct {
	DataSent    uint64 // data-plane packets given a sequence number
	Retransmits uint64 // data-plane packets sent again
	Timeouts    uint64 // retransmit timer expiries
	AcksSent    uint64
	NacksSent   uint64 // gap NACKs sent
	RNRSent     uint64 // flow-control NACKs sent (admission refused)
	AcksRecv    uint64
	NacksRecv   uint64
	RNRRecv     uint64
	CsumDrops   uint64 // packets discarded on checksum mismatch
	DupDrops    uint64 // duplicate sequence numbers discarded
	GapDrops    uint64 // out-of-order packets discarded (go-back-N)
	Recoveries  uint64 // in-order resumptions after a discard episode
}

// relCounters caches the registry handles the reliability engine
// increments on its hot paths (one map lookup each at relInit, none
// afterwards).
type relCounters struct {
	dataSent    *telemetry.Counter
	retransmits *telemetry.Counter
	timeouts    *telemetry.Counter
	acksSent    *telemetry.Counter
	nacksSent   *telemetry.Counter
	rnrSent     *telemetry.Counter
	acksRecv    *telemetry.Counter
	nacksRecv   *telemetry.Counter
	rnrRecv     *telemetry.Counter
	csumDrops   *telemetry.Counter
	dupDrops    *telemetry.Counter
	gapDrops    *telemetry.Counter
	recoveries  *telemetry.Counter
}

// relPeer is the per-remote-NIC protocol state, split into the transmit
// window and the receive cursor.
type relPeer struct {
	id int // remote NIC id

	// Transmit side.
	nextSeq  uint64           // next RelSeq to assign (1-based)
	unacked  []network.Packet // sent, not yet cumulatively ACKed (seq order)
	sendQ    []network.Packet // sequenced, waiting for window space
	rto      sim.Time         // current retransmit timeout (exponential)
	timer    sim.EventID
	armed    bool
	paused   bool     // RNR backoff in progress; timer is the resume event
	lastNack uint64   // last go-back seq honoured (NACK storm suppression)
	lastAt   sim.Time // when it was honoured

	// Receive side.
	expected  uint64 // next RelSeq accepted from this peer
	nackedFor uint64 // gap NACK suppression: expected value already NACKed
	stalled   bool   // a discard episode is open (for Recoveries)
}

// relInit sizes the reliability state; called from New when enabled.
func (n *NIC) relInit() {
	n.relPeers = make([]*relPeer, n.net.Size())
	pre := fmt.Sprintf("nic%d/rel/", n.id)
	n.rel = relCounters{
		dataSent:    n.reg.Counter(pre + "data_sent"),
		retransmits: n.reg.Counter(pre + "retransmits"),
		timeouts:    n.reg.Counter(pre + "timeouts"),
		acksSent:    n.reg.Counter(pre + "acks_sent"),
		nacksSent:   n.reg.Counter(pre + "nacks_sent"),
		rnrSent:     n.reg.Counter(pre + "rnr_sent"),
		acksRecv:    n.reg.Counter(pre + "acks_recv"),
		nacksRecv:   n.reg.Counter(pre + "nacks_recv"),
		rnrRecv:     n.reg.Counter(pre + "rnr_recv"),
		csumDrops:   n.reg.Counter(pre + "csum_drops"),
		dupDrops:    n.reg.Counter(pre + "dup_drops"),
		gapDrops:    n.reg.Counter(pre + "gap_drops"),
		recoveries:  n.reg.Counter(pre + "recoveries"),
	}
	// Initial RTO: a round trip (two wire crossings) plus generous slack
	// for transmit serialisation and firmware turnaround.
	n.rtoInit = 4*n.net.Wire() + 8*sim.Microsecond
	n.rtoMax = 64 * n.rtoInit
	n.ep.Ingress = n.relIngress
}

// peer returns (allocating) the protocol state for remote NIC id.
func (n *NIC) peer(id int) *relPeer {
	pr := n.relPeers[id]
	if pr == nil {
		pr = &relPeer{id: id, nextSeq: 1, expected: 1, rto: n.rtoInit}
		n.relPeers[id] = pr
	}
	return pr
}

// send is the firmware's transmit entry point for data-plane packets.
// Without the reliability engine it is a straight network send (the
// paper's reliable in-order world); with it, the packet is sequenced,
// checksummed, and window-controlled.
func (n *NIC) send(pkt network.Packet) {
	if !n.cfg.Reliable {
		n.net.Send(pkt)
		return
	}
	pr := n.peer(pkt.Dst)
	pkt.RelSeq = pr.nextSeq
	pr.nextSeq++
	pkt.Seal()
	n.rel.dataSent.Inc()
	if len(pr.unacked) >= relWindow {
		pr.sendQ = append(pr.sendQ, pkt)
		return
	}
	n.txData(pr, pkt)
}

// txData admits one sequenced packet to the window and puts it on the wire.
func (n *NIC) txData(pr *relPeer, pkt network.Packet) {
	pr.unacked = append(pr.unacked, pkt)
	n.net.Send(pkt)
	if !pr.armed && !pr.paused {
		n.armTimer(pr, pr.rto, func() { n.relTimeout(pr) })
	}
}

// sendCtl emits an unsequenced, checksummed control packet.
func (n *NIC) sendCtl(kind network.PacketKind, dst int, seq uint64) {
	pkt := network.Packet{Kind: kind, Src: n.id, Dst: dst, RelSeq: seq}
	pkt.Seal()
	n.net.Send(pkt)
}

// armTimer (re)arms the peer's single timer slot.
func (n *NIC) armTimer(pr *relPeer, d sim.Time, fn func()) {
	if pr.armed {
		n.eng.Cancel(pr.timer)
	}
	pr.armed = true
	pr.timer = n.eng.ScheduleCancellable(d, func() {
		pr.armed = false
		fn()
	})
}

func (n *NIC) disarmTimer(pr *relPeer) {
	if pr.armed {
		n.eng.Cancel(pr.timer)
		pr.armed = false
	}
}

// relTimeout is the go-back-N timeout: resend the full window with
// exponential backoff. The timer stays armed while anything is unacked.
func (n *NIC) relTimeout(pr *relPeer) {
	if len(pr.unacked) == 0 {
		return
	}
	n.rel.timeouts.Inc()
	if n.tracer != nil {
		n.tracer.Instant(n.id, tidReliability, "rel", "timeout", n.eng.Now())
	}
	pr.rto *= 2
	if pr.rto > n.rtoMax {
		pr.rto = n.rtoMax
	}
	for _, pkt := range pr.unacked {
		n.rel.retransmits.Inc()
		if n.tracer != nil {
			n.tracer.Instant(n.id, tidReliability, "rel", "retransmit", n.eng.Now())
		}
		n.net.Send(pkt)
	}
	n.armTimer(pr, pr.rto, func() { n.relTimeout(pr) })
}

// relIngress is the endpoint delivery hook: every arriving packet passes
// through here before the ALPU header replication and the Rx FIFO.
// Returning true hands the packet to the normal receive path.
func (n *NIC) relIngress(pkt network.Packet) bool {
	if !pkt.ChecksumOK() {
		n.rel.csumDrops.Inc()
		if pkt.Kind != network.Ack && pkt.Kind != network.Nack && pkt.Kind != network.RNR {
			n.peer(pkt.Src).stalled = true
		}
		return false
	}
	switch pkt.Kind {
	case network.Ack:
		n.rel.acksRecv.Inc()
		n.handleAck(n.peer(pkt.Src), pkt.RelSeq)
		return false
	case network.Nack:
		n.rel.nacksRecv.Inc()
		n.handleNack(n.peer(pkt.Src), pkt.RelSeq)
		return false
	case network.RNR:
		n.rel.rnrRecv.Inc()
		n.handleRNR(n.peer(pkt.Src), pkt.RelSeq)
		return false
	}

	pr := n.peer(pkt.Src)
	switch {
	case pkt.RelSeq < pr.expected:
		// Duplicate (retransmit raced the ACK, or the network duplicated
		// it): discard and re-ACK so the sender's window advances.
		n.rel.dupDrops.Inc()
		n.sendAckNow(pr)
		return false
	case pkt.RelSeq > pr.expected:
		// Sequence gap: go-back-N discards everything past the gap and
		// asks for the expected packet, once per gap episode.
		n.rel.gapDrops.Inc()
		pr.stalled = true
		if pr.nackedFor != pr.expected {
			pr.nackedFor = pr.expected
			n.rel.nacksSent.Inc()
			if n.tracer != nil {
				n.tracer.Instant(n.id, tidReliability, "rel", "nack", n.eng.Now())
			}
			n.sendCtl(network.Nack, pr.id, pr.expected)
		}
		return false
	}

	// In-order: admission control before the sequence advances, so a
	// refused packet is simply retransmitted later.
	if n.refuseAdmission(pkt) {
		n.rel.rnrSent.Inc()
		pr.stalled = true
		if n.tracer != nil {
			n.tracer.Instant(n.id, tidReliability, "rel", "rnr", n.eng.Now())
		}
		n.sendCtl(network.RNR, pr.id, pkt.RelSeq)
		return false
	}

	pr.expected++
	pr.nackedFor = 0
	if pr.stalled {
		pr.stalled = false
		n.rel.recoveries.Inc()
		if n.tracer != nil {
			n.tracer.Instant(n.id, tidReliability, "rel", "recovery", n.eng.Now())
		}
	}
	if pkt.Kind == network.Eager || pkt.Kind == network.RTS {
		n.admittedHdrs++
	}
	n.sendAckNow(pr)
	return true
}

// refuseAdmission reports whether an in-order packet must be RNR-refused:
// the Rx FIFO has no room, or it is a matchable header (EAGER/RTS) and the
// bounded unexpected queue — plus headers already admitted but not yet
// processed by the firmware — is at its limit.
func (n *NIC) refuseAdmission(pkt network.Packet) bool {
	if n.ep.RxQ.Full() {
		return true
	}
	if n.cfg.MaxUnexpected > 0 && (pkt.Kind == network.Eager || pkt.Kind == network.RTS) {
		if n.queueLen(&n.unexp)+n.admittedHdrs >= n.cfg.MaxUnexpected {
			return true
		}
	}
	return false
}

// sendAckNow cumulatively ACKs everything accepted so far from pr.
func (n *NIC) sendAckNow(pr *relPeer) {
	n.rel.acksSent.Inc()
	n.sendCtl(network.Ack, pr.id, pr.expected-1)
}

// handleAck processes a cumulative acknowledgement up to seq.
func (n *NIC) handleAck(pr *relPeer, seq uint64) {
	progress := false
	for len(pr.unacked) > 0 && pr.unacked[0].RelSeq <= seq {
		pr.unacked = pr.unacked[1:]
		progress = true
	}
	if !progress {
		return
	}
	// Forward progress: the path works; reset the backoff.
	pr.rto = n.rtoInit
	pr.paused = false
	// Refill the window from the software send queue.
	for len(pr.sendQ) > 0 && len(pr.unacked) < relWindow {
		pkt := pr.sendQ[0]
		pr.sendQ = pr.sendQ[1:]
		n.txData(pr, pkt)
	}
	if len(pr.unacked) == 0 {
		n.disarmTimer(pr)
		return
	}
	n.armTimer(pr, pr.rto, func() { n.relTimeout(pr) })
}

// handleNack is the go-back-N retransmit request: the receiver discarded
// everything from seq on. Duplicate NACKs for the same point inside one
// round trip are suppressed to avoid a retransmit storm.
func (n *NIC) handleNack(pr *relPeer, seq uint64) {
	if len(pr.unacked) == 0 {
		return
	}
	if seq == pr.lastNack && n.eng.Now() < pr.lastAt+pr.rto {
		return
	}
	pr.lastNack = seq
	pr.lastAt = n.eng.Now()
	n.goBack(pr, seq)
}

// handleRNR pauses the window and retries from seq after a backoff: the
// receiver had no room, so immediate retransmission would only be refused
// again. Each consecutive RNR doubles the pause (reset on ACK progress).
func (n *NIC) handleRNR(pr *relPeer, seq uint64) {
	if len(pr.unacked) == 0 {
		return
	}
	pr.paused = true
	pause := pr.rto
	pr.rto *= 2
	if pr.rto > n.rtoMax {
		pr.rto = n.rtoMax
	}
	n.armTimer(pr, pause, func() {
		pr.paused = false
		n.goBack(pr, seq)
		if !pr.armed && len(pr.unacked) > 0 {
			n.armTimer(pr, pr.rto, func() { n.relTimeout(pr) })
		}
	})
}

// goBack retransmits every unacked packet with RelSeq >= seq, in order.
func (n *NIC) goBack(pr *relPeer, seq uint64) {
	for _, pkt := range pr.unacked {
		if pkt.RelSeq < seq {
			continue
		}
		n.rel.retransmits.Inc()
		if n.tracer != nil {
			n.tracer.Instant(n.id, tidReliability, "rel", "retransmit", n.eng.Now())
		}
		n.net.Send(pkt)
	}
}

// Rel returns a snapshot of the reliability counters, reconstructed from
// the registry handles (all zero for an unreliable NIC).
func (n *NIC) Rel() RelStats {
	return RelStats{
		DataSent:    n.rel.dataSent.Get(),
		Retransmits: n.rel.retransmits.Get(),
		Timeouts:    n.rel.timeouts.Get(),
		AcksSent:    n.rel.acksSent.Get(),
		NacksSent:   n.rel.nacksSent.Get(),
		RNRSent:     n.rel.rnrSent.Get(),
		AcksRecv:    n.rel.acksRecv.Get(),
		NacksRecv:   n.rel.nacksRecv.Get(),
		RNRRecv:     n.rel.rnrRecv.Get(),
		CsumDrops:   n.rel.csumDrops.Get(),
		DupDrops:    n.rel.dupDrops.Get(),
		GapDrops:    n.rel.gapDrops.Get(),
		Recoveries:  n.rel.recoveries.Get(),
	}
}

// RelPending reports outstanding transmit state (unacked + queued), for
// drain assertions in tests and the watchdog diagnostic dump.
func (n *NIC) RelPending() int {
	total := 0
	for _, pr := range n.relPeers {
		if pr != nil {
			total += len(pr.unacked) + len(pr.sendQ)
		}
	}
	return total
}
