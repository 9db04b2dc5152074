// Package network models the simple network of the paper's simulation
// environment (§V-B): endpoints with FIFO Rx buffering, per-endpoint
// transmit serialisation, a bandwidth-limited link, and a 200 ns wire
// latency (Table III). Delivery between a pair of endpoints is in order,
// which is what MPI's matching-order guarantee rests on.
package network

import (
	"fmt"

	"alpusim/internal/match"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// PacketKind distinguishes the protocol messages of the prototype MPI.
type PacketKind int

const (
	// Eager carries the header plus the full payload.
	Eager PacketKind = iota
	// RTS is a rendezvous request: header only; data follows after CTS.
	RTS
	// CTS is the receiver's clear-to-send for a rendezvous.
	CTS
	// Data is the rendezvous payload.
	Data
	// Ack is a reliability-protocol cumulative acknowledgement: RelSeq is
	// the highest in-order sequence number received from Dst's peer state.
	Ack
	// Nack is a go-back-N retransmit request: RelSeq is the next sequence
	// number the receiver expects (everything from it was discarded).
	Nack
	// RNR (receiver not ready) is a flow-control Nack: the receiver had no
	// queue space for RelSeq; the sender must back off before resending.
	RNR
)

func (k PacketKind) String() string {
	switch k {
	case Eager:
		return "EAGER"
	case RTS:
		return "RTS"
	case CTS:
		return "CTS"
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case RNR:
		return "RNR"
	default:
		return fmt.Sprintf("PacketKind(%d)", int(k))
	}
}

// HeaderBytes is the wire overhead of every packet (envelope + routing).
const HeaderBytes = 32

// Packet is one network message.
type Packet struct {
	Kind     PacketKind
	Src, Dst int
	Hdr      match.Header // MPI envelope (Eager and RTS)
	Size     int          // payload bytes
	// SenderReq / RecvReq carry the request handles needed to route
	// rendezvous control traffic back to its request state.
	SenderReq uint64
	RecvReq   uint64
	// Seq numbers the packet per source, (Src+1)<<40 | n for the source's
	// n-th transmission: unique across the network and increasing per
	// source. It is only a correlation key (ALPU probes); Send sets it.
	Seq uint64

	// Reliability-protocol fields (internal/nic). RelSeq is the per
	// (src, dst) link sequence number (1-based; 0 = protocol disabled for
	// this packet). Csum covers every protocol-visible field; the network
	// fault model corrupts only checksummed content, so a checksum match
	// certifies the packet.
	RelSeq uint64
	Csum   uint32
}

// Checksum computes the header checksum over the protocol-visible fields.
// The per-delivery Seq and the Csum field itself are excluded. The mix is
// an FNV-1a-style fold, strong enough that the fault model's single-bit
// flips always miss it.
func (p *Packet) Checksum() uint32 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	mix(uint64(p.Kind))
	mix(uint64(p.Src)<<32 | uint64(uint32(p.Dst)))
	mix(uint64(p.Hdr.Context)<<48 | uint64(uint32(p.Hdr.Source))<<16 | uint64(uint16(p.Hdr.Tag)))
	mix(uint64(int64(p.Size)))
	mix(p.SenderReq)
	mix(p.RecvReq)
	mix(p.RelSeq)
	return uint32(h) ^ uint32(h>>32)
}

// Seal stamps the packet's checksum in place (Csum is not self-covered).
func (p *Packet) Seal() { p.Csum = p.Checksum() }

// ChecksumOK verifies a sealed packet.
func (p *Packet) ChecksumOK() bool { return p.Csum == p.Checksum() }

// Endpoint is one node's attachment point.
type Endpoint struct {
	ID int
	// RxQ buffers arrived packets until the NIC firmware polls them.
	RxQ *sim.FIFO[Packet]
	// Arrived is raised on each delivery, additionally to RxQ.NotEmpty,
	// so NICs can share one kick signal.
	Arrived *sim.Signal

	txBusyUntil sim.Time
	txBytes     uint64
	txPackets   uint64
	// OnDeliver, when set, runs at delivery time before the packet is
	// queued — the hardware path that replicates headers into the ALPU
	// header FIFO (Fig. 1).
	OnDeliver func(Packet)
	// Ingress, when set, intercepts every arriving packet before OnDeliver
	// and the RxQ. Returning false consumes the packet (discarded
	// duplicate, failed checksum, protocol control traffic, refused
	// admission) — the NIC reliability engine hangs here.
	Ingress func(Packet) bool
	// Causal, when set, receives the endpoint's per-message lifecycle
	// stamps: WireTx as the sender, Arrive and Deliver as the receiver.
	// On a partitioned network it must be the endpoint's partition's
	// recorder.
	Causal *telemetry.Causal

	eng *sim.Engine
}

// phaseKey returns the latency-breakdown key for packets that carry an
// MPI envelope. Only Eager and RTS do; control and rendezvous-payload
// traffic is not tracked per message.
func phaseKey(p Packet) (uint64, bool) {
	if p.Kind != Eager && p.Kind != RTS {
		return 0, false
	}
	return uint64(match.Pack(p.Hdr)), true
}

// deliverNow runs one packet through the endpoint's receive path: the
// optional reliability ingress, the optional hardware header replication,
// then the Rx FIFO. A bounded RxQ that is full drops the packet (counted
// by the FIFO); reliable NICs refuse admission in Ingress instead, so the
// drop path is only reachable on raw unreliable endpoints.
func (ep *Endpoint) deliverNow(p Packet) {
	key, tracked := uint64(0), false
	if ep.Causal != nil {
		if key, tracked = phaseKey(p); tracked {
			// Arrive is stamped before the reliability ingress, Deliver
			// only on FIFO admission; the gap is the recovery phase.
			ep.Causal.Stamp(key, telemetry.StampArrive, ep.eng.Now())
		}
	}
	if ep.Ingress != nil && !ep.Ingress(p) {
		return
	}
	if ep.OnDeliver != nil {
		ep.OnDeliver(p)
	}
	if ep.RxQ.Push(p) {
		if tracked {
			ep.Causal.Stamp(key, telemetry.StampDeliver, ep.eng.Now())
		}
		ep.Arrived.Raise()
	}
}

// stampWireTx records WireTx for an envelope-carrying packet the
// endpoint sends. It is stamped when the NIC hands the packet to the
// link, so transmit serialisation waits land in the wire phase;
// first-wins keeps retransmits from moving it.
func (ep *Endpoint) stampWireTx(pkt Packet, now sim.Time) {
	if ep.Causal == nil {
		return
	}
	if key, ok := phaseKey(pkt); ok {
		ep.Causal.Stamp(key, telemetry.StampWireTx, now)
	}
}

// Network connects a fixed set of endpoints.
type Network struct {
	endpoints []*Endpoint

	// Fault injection (nil/zero = the reliable in-order default).
	faults *FaultModel

	// All per-transmission state is owned by the sending endpoint:
	// links[src] holds its packet and delivery sequences, fault stream
	// and fault counters, so the partitions of a partitioned network
	// (NewPartitioned) never contend on it. A single-engine network (New)
	// has ps == nil: its deliveries are ordinary events and its sources
	// share one fault stream. On a partitioned network, cross-partition
	// deliveries detour through the PartitionSet outbox.
	ps     *sim.PartitionSet
	partOf []int // endpoint -> partition
	links  []srcLink
}

// srcLink is the per-source-endpoint transmission state. Everything here
// is touched only from the source endpoint's engine.
type srcLink struct {
	seq   uint64    // per-source packet sequence (Packet.Seq minor bits)
	dseq  uint64    // per-source delivery sequence (canonical tie-break)
	rng   *sim.Rand // fault stream; shared by every source on a single engine
	stats FaultStats
}

// New builds a network of n endpoints on eng with the Table III wire
// latency and link bandwidth.
func New(eng *sim.Engine, n int) *Network {
	net := &Network{links: make([]srcLink, n)}
	for i := 0; i < n; i++ {
		net.addEndpoint(eng)
	}
	return net
}

// NewPartitioned builds a network whose endpoints live on the per-partition
// engines of ps: endpoint i runs on ps.Engines()[partOf[i]]. The wire
// latency doubles as the conservative lookahead — every delivery lands at
// least the wire latency after the event that sent it — so ps must have
// been built with a lookahead no larger.
func NewPartitioned(ps *sim.PartitionSet, partOf []int) *Network {
	if ps.Lookahead() > params.WireLatency {
		panic(fmt.Sprintf("network: partition lookahead %v exceeds wire latency %v", ps.Lookahead(), params.WireLatency))
	}
	net := &Network{ps: ps, partOf: partOf, links: make([]srcLink, len(partOf))}
	for _, p := range partOf {
		net.addEndpoint(ps.Engines()[p])
	}
	return net
}

// addEndpoint appends the next endpoint, driven by eng.
func (n *Network) addEndpoint(eng *sim.Engine) {
	i := len(n.endpoints)
	n.endpoints = append(n.endpoints, &Endpoint{
		ID:      i,
		RxQ:     sim.NewFIFO[Packet](eng, fmt.Sprintf("net%d.rx", i), 0),
		Arrived: sim.NewSignal(eng),
		eng:     eng,
	})
}

// Endpoint returns endpoint i.
func (n *Network) Endpoint(i int) *Endpoint { return n.endpoints[i] }

// Size returns the number of endpoints.
func (n *Network) Size() int { return len(n.endpoints) }

// Wire returns the wire latency (the NIC reliability protocol derives its
// initial retransmit timeout from it).
func (n *Network) Wire() sim.Time { return params.WireLatency }

// Send transmits pkt from its Src endpoint at the current time. The
// source link serialises transmissions; the packet arrives at Dst after
// the transmit time plus the wire latency. Send runs on the source
// endpoint's engine and touches only per-source state, so concurrent
// partition windows never contend.
func (n *Network) Send(pkt Packet) {
	src := n.endpoints[pkt.Src]
	dst := n.endpoints[pkt.Dst]
	ln := &n.links[pkt.Src]
	ln.seq++
	pkt.Seq = uint64(pkt.Src+1)<<40 | ln.seq

	now := src.eng.Now()
	src.stampWireTx(pkt, now)
	start := now
	if src.txBusyUntil > start {
		start = src.txBusyUntil
	}
	txTime := sim.Time((HeaderBytes+max(pkt.Size, 0))/params.LinkBandwidthBpns) * sim.Nanosecond
	src.txBusyUntil = start + txTime
	src.txBytes += uint64(HeaderBytes + max(pkt.Size, 0))
	src.txPackets++

	// Absolute delivery time: at least wire (= the lookahead) after now,
	// which is what licenses the conservative horizon.
	at := src.txBusyUntil + params.WireLatency
	if n.faults.Active() {
		n.inject(pkt, src, dst, at)
		return
	}
	n.deliverAt(src, dst, at, pkt)
}

// deliverAt schedules one delivery at absolute time at: an ordinary event
// on a single-engine network; on a partitioned one, a canonical
// (time, source, sequence) delivery, directly on the shared engine or via
// the barrier outbox.
func (n *Network) deliverAt(src, dst *Endpoint, at sim.Time, p Packet) {
	if n.ps == nil {
		src.eng.At(at, func() { dst.deliverNow(p) })
		return
	}
	ln := &n.links[src.ID]
	ln.dseq++
	sp, dp := n.partOf[src.ID], n.partOf[dst.ID]
	if sp == dp {
		src.eng.AtDelivery(at, uint32(src.ID), ln.dseq, func() { dst.deliverNow(p) })
		return
	}
	n.ps.Defer(sp, sim.Delivery{
		At: at, Src: uint32(src.ID), Seq: ln.dseq, Part: dp,
		Fn: func() { dst.deliverNow(p) },
	})
}

// TxPackets reports packets transmitted by endpoint i.
func (n *Network) TxPackets(i int) uint64 { return n.endpoints[i].txPackets }

// TxBytes reports bytes transmitted by endpoint i.
func (n *Network) TxBytes(i int) uint64 { return n.endpoints[i].txBytes }

// Publish harvests the network's counters into a telemetry registry:
// injected-fault totals under net/faults and per-endpoint transmit
// counters under net/ep<i>. Idempotent (counters are Set, not added).
func (n *Network) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	fs := n.FaultStats()
	reg.Counter("net/faults/dropped").Set(fs.Dropped)
	reg.Counter("net/faults/duplicated").Set(fs.Duplicated)
	reg.Counter("net/faults/reordered").Set(fs.Reordered)
	reg.Counter("net/faults/corrupted").Set(fs.Corrupted)
	for i, ep := range n.endpoints {
		reg.Counter(fmt.Sprintf("net/ep%d/tx_packets", i)).Set(ep.txPackets)
		reg.Counter(fmt.Sprintf("net/ep%d/tx_bytes", i)).Set(ep.txBytes)
	}
}
