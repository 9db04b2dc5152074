// Package nic models the network interface of §V: an embedded processor
// (PPC440-class, Table III) running the firmware loop of §V-C over the
// MPI queue structures, with optional associative list processing units
// (ALPUs) for the posted receive queue and the unexpected message queue,
// wired exactly as in Fig. 1: header copies flow to the ALPU in hardware,
// and the processor interacts with it only through command/result FIFOs
// across the 20 ns local bus.
//
// The same firmware implements both evaluated configurations:
//
//   - baseline: linear traversal of the queues on the NIC processor, each
//     entry charged through the cache/DRAM model;
//   - ALPU: the §IV software interface — shadow list, not-in-ALPU pointer,
//     batched inserts behind START/STOP INSERT, result draining, and
//     software search of only the overflow portion on MATCH FAILURE.
package nic

import (
	"fmt"
	"log/slog"

	"alpusim/internal/alpu"
	"alpusim/internal/cache"
	"alpusim/internal/dma"
	"alpusim/internal/dram"
	"alpusim/internal/match"
	"alpusim/internal/memsys"
	"alpusim/internal/network"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
	"alpusim/internal/trace"
)

// ReqKind distinguishes host requests.
type ReqKind int

const (
	// ReqSend asks the NIC to transmit a message.
	ReqSend ReqKind = iota
	// ReqRecv posts a receive.
	ReqRecv
	// ReqProbe checks the unexpected queue for a matching message without
	// consuming it (MPI_Iprobe). Non-consuming lookups cannot use the
	// ALPU — its matches always delete (§III-B) — so probes always search
	// the software copy; see DESIGN.md.
	ReqProbe
)

// HostRequest is one descriptor written by the host library to the NIC.
type HostRequest struct {
	Kind ReqKind
	ID   uint64

	// Send fields.
	Dst  int
	Hdr  match.Header
	Size int

	// Recv fields.
	Recv     match.Recv
	RecvSize int
}

// DefaultCells is the ALPU capacity New fits when Config.Cells is 0: the
// larger of the two units the paper evaluates.
const DefaultCells = 256

// Config selects a NIC build point.
type Config struct {
	ID int

	// UseALPU enables the two matching units.
	UseALPU bool
	// Cells is the ALPU capacity (the paper evaluates 128 and 256;
	// 0 = DefaultCells).
	Cells int
	// Threshold is the §VI-B software heuristic: the ALPU is not engaged
	// until the queue reaches this length.
	Threshold int
	// InsertBatchMax caps inserts per START/STOP INSERT episode
	// (0 = fill all free cells); the abl-insertbatch ablation sets 1.
	InsertBatchMax int
	// ALPUConfig optionally overrides the device configuration (geometry,
	// pipeline). Variant and cells are filled in per unit.
	ALPUConfig *alpu.Config
	// MatchShards, when > 1 with UseALPU, replaces the single
	// posted-receive unit with a sharded matching fabric of that many ALPU
	// instances: posted receives hash by (context, source) across the
	// shards through a hot-entry dispatch cache, each shard pairs its
	// device with a hash-organised software overflow, and ANY_SOURCE
	// receives broadcast one copy per shard (fabric.go). The unexpected
	// queue keeps its single unit. Match outcomes are byte-identical to
	// every other configuration. Requires UseALPU; mutually exclusive with
	// UseHashList.
	MatchShards int

	// ALPUFaults, when active, attaches the device-level fault model to
	// both matching units (per-unit streams are derived from the seed, the
	// NIC id and the unit id, so every device in the world faults
	// independently and deterministically) and arms the firmware's
	// strike/resync/failover recovery machinery (devfault.go).
	ALPUFaults *alpu.FaultModel
	// ShardFaults optionally overrides the device fault model for
	// individual fabric shards: ShardFaults[i], when non-nil and active,
	// replaces ALPUFaults for shard i's unit (the one-shard-dies failover
	// experiments). Entries beyond MatchShards are ignored.
	ShardFaults []*alpu.FaultModel
	// FwCrashProb is the per-pending-work-item probability of an injected
	// firmware crash at the loop top. The crashed firmware restarts after
	// a 10µs reboot and replays device state from the shadow queues.
	FwCrashProb float64
	// FwCrashSeed seeds the crash stream (0 = derived from ID).
	FwCrashSeed uint64
	// FaultStrikeLimit is the number of consecutive device faults after
	// which the firmware declares a unit dead and hot-fails-over to
	// software matching (0 = 5).
	FaultStrikeLimit int
	// FaultResultTimeout is the base response-wait budget when device
	// faults are configured (0 = 10µs); it doubles with each strike.
	FaultResultTimeout sim.Time
	// FaultRetryBase is the base re-engagement backoff after a strike
	// (0 = 20µs), exponential in the strike count, capped.
	FaultRetryBase sim.Time

	// UseHashList switches the software queues to the hash organisation
	// of §II (the abl-hash ablation baseline). Mutually exclusive with
	// UseALPU and with MatchShards: New panics on either combination.
	UseHashList bool

	// CPUProfile overrides the NIC processor model (nil = the Table III
	// PPC440-class profile). params.ElanNIC() reproduces the §VI-B
	// Quadrics comparison point.
	CPUProfile *params.CPU

	// Reliable enables the link reliability engine (reliability.go): the
	// go-back-N protocol that restores the in-order, loss-free delivery
	// the matching queues assume when the network runs a fault model. The
	// MPI layer forces it on whenever faults are configured.
	Reliable bool
	// MaxUnexpected bounds the unexpected queue under the reliability
	// protocol: an in-order EAGER/RTS that would grow it past the bound is
	// refused with a receiver-not-ready NACK instead of growing the queue
	// without limit (0 = unbounded).
	MaxUnexpected int
	// RxQDepth bounds the endpoint's Rx FIFO (0 = unbounded). A reliable
	// NIC refuses admission with RNR when it is full; a raw NIC drops the
	// packet (counted by the FIFO).
	RxQDepth int

	// Telemetry is the world's metrics registry. The NIC registers its
	// counters under "nic<ID>/..."; nil creates a private registry so the
	// accessors below always work (standalone NICs in tests).
	Telemetry *telemetry.Registry
	// Log, when non-nil, receives structured diagnostics (recoverable
	// protocol errors). The MPI layer passes a logger whose handler
	// stamps records with the simulated clock.
	Log *slog.Logger
	// ErrorHook, when set, observes every recoverable protocol error
	// after it has been counted — the MPI layer's flight-recorder dump
	// trigger. Called on the simulation goroutine.
	ErrorHook func(err error)
	// Tracer, when set, records firmware/ALPU/reliability activity as
	// trace events under pid ID.
	Tracer *telemetry.Tracer
	// Causal, when set, is the NIC's per-message lifecycle recorder: it
	// receives the firmware's pipeline stamps (FwPop, Match, Complete,
	// HostDone) and resync/failover time annotations (telemetry.Causal).
	Causal *telemetry.Causal
	// Series, when set, receives the NIC's time-series probes: queue
	// depths, FIFO occupancy, the go-back-N window, per-shard fabric
	// balance and the rolling match-latency p99, all sampled on the
	// owning engine's front-poll chain (telemetry.Sampler).
	Series *telemetry.Sampler
}

// Stats aggregates firmware activity for the benchmark reports.
type Stats struct {
	PacketsHandled   uint64
	HostReqsHandled  uint64
	EntriesTraversed uint64 // software queue entries examined
	PostedMatches    uint64
	Unexpected       uint64 // messages that joined the unexpected queue
	UnexpMatches     uint64
	ALPUPostedHits   uint64
	ALPUPostedMisses uint64
	ALPUUnexpHits    uint64
	ALPUUnexpMisses  uint64
	ALPUInserts      uint64
	ALPUPurges       uint64 // stale prefix copies purged after the §IV-C race
	InsertEpisodes   uint64
	Completions      uint64
}

// mirrorQueue pairs a software queue with its (optional) ALPU, the
// §IV-B "portion not yet entered" pointer, and the tag table that maps
// ALPU tags back to entries.
type mirrorQueue struct {
	name    string
	list    match.List
	hash    *match.HashList // non-nil when Config.UseHashList
	dev     *alpu.Device    // non-nil when Config.UseALPU
	inALPU  int             // length of the list prefix currently in the ALPU
	tags    map[uint32]*match.Entry
	nextTag uint32

	// Fabric-shard state (fabric.go): the hash-organised mirror of the
	// unloaded list suffix (over == list[inALPU:] while the device lives;
	// nil outside the fabric and after failover), the quarantine of tags
	// whose cells were invalidated while a response might still be in
	// flight, and the overflow promotion/demotion counters.
	over       *match.HashList
	stale      map[uint32]bool
	promotions uint64
	demotions  uint64

	// Instrumentation for the refs [8]/[9]-style queue studies: where
	// matches land and how long the queue gets. The histogram lives in
	// the telemetry registry ("nic<ID>/<name>/match_depth").
	depths  *telemetry.Histogram
	peakLen int
	// pending holds match results drained while awaiting an insert
	// acknowledge, each stamped with the not-in-ALPU pointer value at the
	// time it was read: a failure generated before an insert episode must
	// be resolved against the pre-episode list state (§IV-C/D race).
	pending []stashedResp

	// engaged is the §IV-C initialisation gate: until the firmware engages
	// the unit (first insert episode, after the Threshold heuristic
	// fires), duplicate-information delivery is disabled and probes do
	// not flow, so short queues avoid the ALPU interface penalty.
	engaged bool
	// probed tracks the correlation keys (packet seq / request id) of
	// probes that have been delivered to the unit and whose results are
	// still outstanding.
	probed map[uint64]bool

	// Device-fault recovery state (devfault.go).
	strikes    int      // consecutive unresolved device faults
	retryAt    sim.Time // insert episodes gated until this instant
	needResync bool     // mirror state suspect; resync at next safe point
	alpuDead   bool     // failed over: the hash shadow serves matching
}

// removeAt unlinks the entry at idx from the software list and keeps any
// stashed responses' not-in-ALPU pointers consistent: removing an entry
// below a stash-era bracket shifts every later entry down one slot, so
// the bracket must move with them or a later fallback search would start
// past the entry it is looking for.
func (q *mirrorQueue) removeAt(idx int) {
	q.list.RemoveAt(idx)
	for i := range q.pending {
		if q.pending[i].from > idx {
			q.pending[i].from--
		}
	}
}

// stash keeps a result read ahead of the one the firmware waits for,
// stamped with the current not-in-ALPU pointer.
func (q *mirrorQueue) stash(r alpu.Response) {
	q.pending = append(q.pending, stashedResp{r: r, from: q.inALPU})
}

// dropMirror forgets what the firmware knew of the unit's contents: the
// stashed results, the outstanding probes, the tag table, the stale-tag
// quarantine and the not-in-ALPU pointer. The resync and the failover
// both end the mirror here.
func (q *mirrorQueue) dropMirror() {
	q.pending = q.pending[:0]
	clear(q.probed)
	clear(q.tags)
	clear(q.stale)
	q.inALPU = 0
}

// consumedByLaterProbe reports whether a stashed MATCH SUCCESS names
// entry: a probe the firmware has not processed yet already consumed the
// unit's copy of it.
func (q *mirrorQueue) consumedByLaterProbe(entry *match.Entry) bool {
	for _, st := range q.pending {
		if st.r.Kind == alpu.RespMatchSuccess && q.tags[st.r.Tag] == entry {
			return true
		}
	}
	return false
}

type sendState struct {
	req HostRequest
}

// unexMsg is the NIC-side record of an unexpected message (§V-C
// unexpectedQ entry).
type unexMsg struct {
	pkt network.Packet
}

// postedRecv is the NIC-side record of a posted receive.
type postedRecv struct {
	req HostRequest
}

// NIC is one simulated network interface.
type NIC struct {
	eng *sim.Engine
	cfg Config
	cpu params.CPU

	mem   *memsys.Hierarchy
	net   *network.Network
	ep    *network.Endpoint
	dmaRx *dma.Engine
	dmaTx *dma.Engine

	// HostQ carries requests from the host library; pushes must go
	// through SubmitRequest so the host-bus latency is modelled.
	HostQ *sim.FIFO[HostRequest]
	kick  *sim.Signal

	posted mirrorQueue
	unexp  mirrorQueue

	// fab is the sharded matching fabric (fabric.go), non-nil when
	// Config.MatchShards > 1 with UseALPU; alpuQueues enumerates every
	// device-backed queue (the fabric shards or posted, plus unexp) for
	// the maintenance loops. matchLat is the live posted-side match
	// latency histogram, in 64 ns units, recorded for every configuration.
	fab        *fabricState
	alpuQueues []*mirrorQueue
	matchLat   *telemetry.Histogram

	pendingSends map[uint64]*sendState

	entryAlloc addrAlloc
	purgeKey   uint64

	// Complete is invoked when a host request finishes on the NIC side at
	// simulated time `at` (before the host-bus delay). For receives, st
	// carries the matched envelope and size (MPI_Status). Set by the host
	// layer before traffic flows.
	Complete func(reqID uint64, at sim.Time, st CompletionStatus)

	// rendezvous receive statuses keyed by request id, captured when the
	// RTS matches (the DATA packet no longer carries the envelope).
	rndvStatus map[uint64]CompletionStatus

	stats Stats

	// Telemetry: the registry all counters live in (never nil — a private
	// one is created when Config.Telemetry is unset), plus the optional
	// tracer and lifecycle recorder.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	causal *telemetry.Causal

	// Reliability-engine state (reliability.go). The counters live in the
	// registry under "nic<ID>/rel/..." (rel holds the cached handles).
	relPeers     []*relPeer
	rel          relCounters
	rtoInit      sim.Time
	rtoMax       sim.Time
	admittedHdrs int // EAGER/RTS headers admitted but not yet processed

	// Recoverable protocol errors (errors.go): counted per operation in
	// the registry ("nic<ID>/err/<op>") instead of panicking, with the
	// most recent kept for diagnostics.
	errTotal uint64
	lastErr  error

	// crashRng drives firmware crash injection (devfault.go); nil when
	// Config.FwCrashProb is zero.
	crashRng *sim.Rand

	// faultEvents counts device strikes (noteDeviceFault calls) — the
	// causal recorder compares it across a match resolution to decide
	// whether the elapsed search time belongs to resync/failover blame.
	faultEvents uint64
}

// addrAlloc is a bump allocator with LIFO reuse, approximating the
// firmware's fixed-size object pools: freed entries are reused hottest
// first, as a free list would.
type addrAlloc struct {
	next, size uint64
	free       []uint64
}

func (a *addrAlloc) get() uint64 {
	if n := len(a.free); n > 0 {
		addr := a.free[n-1]
		a.free = a.free[:n-1]
		return addr
	}
	addr := a.next
	a.next += a.size
	return addr
}

func (a *addrAlloc) put(addr uint64) { a.free = append(a.free, addr) }

// New creates a NIC bound to endpoint cfg.ID of net and starts its
// firmware process.
func New(eng *sim.Engine, cfg Config, net *network.Network) *NIC {
	if cfg.UseALPU && cfg.UseHashList {
		panic("nic: UseALPU and UseHashList are mutually exclusive")
	}
	if cfg.MatchShards > 1 && cfg.UseHashList {
		panic("nic: MatchShards and UseHashList are mutually exclusive")
	}
	if cfg.MatchShards > 1 && !cfg.UseALPU {
		panic("nic: MatchShards requires UseALPU")
	}
	if cfg.UseALPU && cfg.Cells == 0 {
		cfg.Cells = DefaultCells
	}
	cpu := params.NICCPU()
	if cfg.CPUProfile != nil {
		cpu = *cfg.CPUProfile
	}
	n := &NIC{
		eng:          eng,
		cfg:          cfg,
		cpu:          cpu,
		mem:          memsys.New(cpu, dram.New(dram.DefaultConfig())),
		net:          net,
		ep:           net.Endpoint(cfg.ID),
		dmaRx:        dma.New(fmt.Sprintf("nic%d.rx", cfg.ID), 0, 0),
		dmaTx:        dma.New(fmt.Sprintf("nic%d.tx", cfg.ID), 0, 0),
		HostQ:        sim.NewFIFO[HostRequest](eng, fmt.Sprintf("nic%d.hostq", cfg.ID), 0),
		kick:         sim.NewSignal(eng),
		pendingSends: make(map[uint64]*sendState),
		rndvStatus:   make(map[uint64]CompletionStatus),
		entryAlloc:   addrAlloc{next: 0x1_0000, size: params.QueueEntryFullBytes},
		reg:          cfg.Telemetry,
		tracer:       cfg.Tracer,
		causal:       cfg.Causal,
	}
	if n.reg == nil {
		n.reg = telemetry.NewRegistry()
	}
	if cfg.FwCrashProb > 0 {
		seed := cfg.FwCrashSeed
		if seed == 0 {
			seed = uint64(cfg.ID) + 1
		}
		n.crashRng = sim.NewRand(seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	}
	if n.tracer != nil {
		n.tracer.NameProcess(cfg.ID, fmt.Sprintf("nic%d", cfg.ID))
		n.tracer.NameThread(cfg.ID, tidFirmware, "firmware")
		if cfg.UseALPU {
			if cfg.MatchShards > 1 {
				for i := 0; i < cfg.MatchShards; i++ {
					n.tracer.NameThread(cfg.ID, tidShardBase+i, fmt.Sprintf("posted-alpu%d", i))
				}
			} else {
				n.tracer.NameThread(cfg.ID, tidPostedALPU, "posted-alpu")
			}
			n.tracer.NameThread(cfg.ID, tidUnexpALPU, "unexp-alpu")
		}
		if cfg.Reliable {
			n.tracer.NameThread(cfg.ID, tidReliability, "reliability")
		}
	}
	if cfg.RxQDepth > 0 {
		// Replace the endpoint's unbounded Rx FIFO with a bounded one: real
		// NIC receive buffers are finite, and the reliability engine's
		// admission control needs a full condition to push back against.
		n.ep.RxQ = sim.NewFIFO[network.Packet](eng, fmt.Sprintf("net%d.rx", cfg.ID), cfg.RxQDepth)
	}
	n.posted = newMirrorQueue("posted", cfg)
	n.unexp = newMirrorQueue("unexp", cfg)
	n.posted.depths = n.reg.Histogram(fmt.Sprintf("nic%d/posted/match_depth", cfg.ID))
	n.unexp.depths = n.reg.Histogram(fmt.Sprintf("nic%d/unexp/match_depth", cfg.ID))
	n.matchLat = n.reg.Histogram(fmt.Sprintf("nic%d/posted/match_lat64", cfg.ID))
	if cfg.UseALPU {
		if cfg.MatchShards > 1 {
			n.fab = &fabricState{cache: cache.New(dispatchCacheGeometry())}
			for i := 0; i < cfg.MatchShards; i++ {
				q := newMirrorQueue(fmt.Sprintf("posted%d", i), cfg)
				q.over = match.NewHashList()
				q.stale = make(map[uint32]bool)
				q.depths = n.reg.Histogram(fmt.Sprintf("nic%d/%s/match_depth", cfg.ID, q.name))
				q.dev = alpu.MustDevice(eng, fmt.Sprintf("nic%d.palpu%d", cfg.ID, i), n.shardConfig(i))
				n.fab.shards = append(n.fab.shards, &q)
			}
			n.alpuQueues = append(n.alpuQueues, n.fab.shards...)
		} else {
			n.posted.dev = alpu.MustDevice(eng, fmt.Sprintf("nic%d.palpu", cfg.ID), n.alpuConfig(alpu.PostedReceives, tidPostedALPU))
			n.alpuQueues = append(n.alpuQueues, &n.posted)
		}
		n.unexp.dev = alpu.MustDevice(eng, fmt.Sprintf("nic%d.ualpu", cfg.ID), n.alpuConfig(alpu.UnexpectedMessages, tidUnexpALPU))
		n.alpuQueues = append(n.alpuQueues, &n.unexp)
	}
	// The hardware path of Fig. 1: every matchable header is replicated
	// into the posted-receive ALPU's header FIFO at delivery time, before
	// the firmware sees the packet — once the unit is engaged (§IV-C:
	// delivery of duplicate information is disabled until initialised).
	// Under the fabric the header replicates only into its owner shard;
	// the shard index is a pure function of the header, so the hardware
	// needs no firmware state to route.
	n.ep.Arrived = n.kick
	n.ep.OnDeliver = func(pkt network.Packet) {
		if pkt.Kind != network.Eager && pkt.Kind != network.RTS {
			return
		}
		q := &n.posted
		if n.fab != nil {
			q = n.fab.shards[match.ShardOf(match.Pack(pkt.Hdr), len(n.fab.shards))]
		}
		if q.engaged {
			q.dev.PushProbe(alpu.Probe{Bits: match.Pack(pkt.Hdr), Meta: pkt.Seq})
			q.probed[pkt.Seq] = true
		}
	}
	if cfg.Reliable {
		n.relInit()
	}
	n.registerProbes(cfg.Series)
	eng.Spawn(fmt.Sprintf("nic%d.fw", cfg.ID), n.firmware)
	return n
}

// registerProbes wires the NIC's time-series probes into the world's (or,
// in a partitioned world, the owning partition's) sampler. Every name is
// nic-scoped, so shard samplers union without collision. Probes read live
// NIC state, which is safe: a front poll fires on the NIC's own engine,
// after every event strictly before the tick and before any event at it.
func (n *NIC) registerProbes(sa *telemetry.Sampler) {
	if sa == nil {
		return
	}
	pre := fmt.Sprintf("nic%d", n.cfg.ID)
	sa.Probe(pre+"/posted/depth", func() int64 { return int64(n.PostedLen()) })
	sa.Probe(pre+"/unexp/depth", func() int64 { return int64(n.UnexpLen()) })
	sa.Probe(pre+"/rxq/depth", func() int64 { return int64(n.ep.RxQ.Len()) })
	sa.Probe(pre+"/hostq/depth", func() int64 { return int64(n.HostQ.Len()) })
	sa.Probe(pre+"/posted/match_lat64_p99", func() int64 {
		h := n.matchLat.Hist()
		return int64(h.Percentile(0.99))
	})
	if n.cfg.Reliable {
		sa.Probe(pre+"/rel/window", func() int64 { return int64(n.RelPending()) })
	}
	if n.fab != nil {
		for i, q := range n.fab.shards {
			q := q
			sa.Probe(fmt.Sprintf("%s/fabric/shard%d/depth", pre, i),
				func() int64 { return int64(n.queueLen(q)) })
		}
	}
}

func newMirrorQueue(name string, cfg Config) mirrorQueue {
	q := mirrorQueue{
		name:   name,
		tags:   make(map[uint32]*match.Entry),
		probed: make(map[uint64]bool),
	}
	if cfg.UseHashList {
		q.hash = match.NewHashList()
	}
	return q
}

// Trace-event thread ids within a NIC's pid track.
const (
	tidFirmware = iota
	tidPostedALPU
	tidUnexpALPU
	tidReliability
	// tidShardBase + i is fabric shard i's device track (fabric.go); the
	// offset also salts each shard's fault-stream seed, so the shards of
	// one NIC fault independently.
	tidShardBase
)

func (n *NIC) alpuConfig(v alpu.Variant, tid int) alpu.Config {
	c := alpu.DefaultConfig(v, n.cfg.Cells)
	if n.cfg.ALPUConfig != nil {
		c = *n.cfg.ALPUConfig
		c.Variant = v
		if c.Geometry.Cells == 0 {
			c.Geometry.Cells = n.cfg.Cells
		}
	}
	if f := n.unitFaults(n.cfg.ALPUFaults, tid); f != nil {
		c.Faults = f
	}
	c.Tracer = n.tracer
	c.TracePID = n.cfg.ID
	c.TraceTID = tid
	return c
}

// shardConfig builds fabric shard i's device configuration: the ordinary
// posted-receive configuration on the shard's own trace/fault stream,
// with Config.ShardFaults[i] overriding the fault model when set.
func (n *NIC) shardConfig(i int) alpu.Config {
	c := n.alpuConfig(alpu.PostedReceives, tidShardBase+i)
	if i < len(n.cfg.ShardFaults) {
		if f := n.unitFaults(n.cfg.ShardFaults[i], tidShardBase+i); f != nil {
			c.Faults = f
		}
	}
	return c
}

// unitFaults returns a copy of f re-seeded for the device unit on trace
// track tid of this NIC, so every unit in the world faults independently;
// nil when f injects nothing.
func (n *NIC) unitFaults(f *alpu.FaultModel, tid int) *alpu.FaultModel {
	if !f.Active() {
		return nil
	}
	g := *f
	g.Seed += uint64(n.cfg.ID)*0x9E3779B9 + uint64(tid)*0x85EBCA6B
	return &g
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Stats returns a snapshot of the firmware counters.
func (n *NIC) Stats() Stats { return n.stats }

// Registry returns the NIC's telemetry registry (the world's shared one,
// or the private registry created when none was configured).
func (n *NIC) Registry() *telemetry.Registry { return n.reg }

// ErrorsTotal reports the recoverable protocol errors recorded so far,
// across all operations.
func (n *NIC) ErrorsTotal() uint64 { return n.errTotal }

// ErrorCount reports the recoverable protocol errors recorded for one
// operation ("cts-unknown-send", "alpu-unknown-tag", ...).
func (n *NIC) ErrorCount(op string) uint64 {
	return n.reg.Counter(fmt.Sprintf("nic%d/err/%s", n.cfg.ID, op)).Get()
}

// LastError returns the most recent recoverable protocol error, or nil.
func (n *NIC) LastError() error { return n.lastErr }

// ALPUDead reports whether the named queue's unit ("posted"/"unexp", or
// a fabric shard "posted0".."postedN") has been declared dead and failed
// over to software matching.
func (n *NIC) ALPUDead(name string) bool {
	for _, q := range n.alpuQueues {
		if q.name == name {
			return q.alpuDead
		}
	}
	return false
}

// FailoverCount returns one of the live failover counters ("strikes",
// "resyncs", "deaths", "shadow_rebuilds", "fw_crashes", "fw_restarts",
// "fault_responses").
func (n *NIC) FailoverCount(name string) uint64 {
	return n.reg.Counter(fmt.Sprintf("nic%d/failover/%s", n.cfg.ID, name)).Get()
}

// noteError records a recoverable protocol error: counted, retained for
// diagnostics, and the firmware carries on (true invariant violations
// still panic).
func (n *NIC) noteError(err *ProtocolError) {
	n.reg.Counter(fmt.Sprintf("nic%d/err/%s", n.cfg.ID, err.Op)).Inc()
	n.errTotal++
	n.lastErr = err
	if n.cfg.Log != nil {
		n.cfg.Log.Warn("recoverable protocol error",
			"nic", n.cfg.ID, "op", err.Op, "err", err.Error())
	}
	if n.cfg.ErrorHook != nil {
		n.cfg.ErrorHook(err)
	}
}

// PostedDepths returns a copy of the posted-receive match-depth histogram
// (how many entries sat ahead of each match — the refs [8]/[9] metric).
// Under the fabric the per-shard histograms are merged.
func (n *NIC) PostedDepths() *trace.Histogram {
	if n.fab != nil {
		var h trace.Histogram
		for _, q := range n.fab.shards {
			qh := q.depths.Hist()
			h.Merge(&qh)
		}
		return &h
	}
	h := n.posted.depths.Hist()
	return &h
}

// MatchLatencies returns a copy of the posted-side match latency
// histogram; one sample per incoming header, in units of 64 ns.
func (n *NIC) MatchLatencies() *trace.Histogram {
	h := n.matchLat.Hist()
	return &h
}

// UnexpDepths returns a copy of the unexpected-queue match-depth histogram.
func (n *NIC) UnexpDepths() *trace.Histogram {
	h := n.unexp.depths.Hist()
	return &h
}

// PeakPostedLen reports the posted queue's high-water mark (fabric-wide
// under sharding).
func (n *NIC) PeakPostedLen() int {
	if n.fab != nil {
		return n.fab.peakPosted
	}
	return n.posted.peakLen
}

// PeakUnexpLen reports the unexpected queue's high-water mark.
func (n *NIC) PeakUnexpLen() int { return n.unexp.peakLen }

// Mem exposes the NIC memory hierarchy (tests and reports).
func (n *NIC) Mem() *memsys.Hierarchy { return n.mem }

// RxDrops reports packets lost to a full (bounded) Rx FIFO. A reliable
// NIC refuses admission before the FIFO overflows, so this stays zero
// there; raw bounded endpoints count their losses here.
func (n *NIC) RxDrops() uint64 { return n.ep.RxQ.Drops() }

// PostedALPU returns the posted-receive unit, or nil (always nil under
// the fabric — use ShardALPU).
func (n *NIC) PostedALPU() *alpu.Device { return n.posted.dev }

// ShardALPU returns fabric shard i's posted-receive unit, or nil when the
// fabric is off or i is out of range.
func (n *NIC) ShardALPU(i int) *alpu.Device {
	if n.fab == nil || i < 0 || i >= len(n.fab.shards) {
		return nil
	}
	return n.fab.shards[i].dev
}

// MatchShardCount reports the number of fabric shards (0 = no fabric).
func (n *NIC) MatchShardCount() int {
	if n.fab == nil {
		return 0
	}
	return len(n.fab.shards)
}

// UnexpALPU returns the unexpected-message unit, or nil.
func (n *NIC) UnexpALPU() *alpu.Device { return n.unexp.dev }

// PostedLen reports the current posted receive queue length (summed over
// the shards under the fabric; a broadcast wildcard counts once per
// shard, like the copies it posts).
func (n *NIC) PostedLen() int {
	if n.fab != nil {
		total := 0
		for _, q := range n.fab.shards {
			total += n.queueLen(q)
		}
		return total
	}
	return n.queueLen(&n.posted)
}

// UnexpLen reports the current unexpected queue length.
func (n *NIC) UnexpLen() int { return n.queueLen(&n.unexp) }

func (n *NIC) queueLen(q *mirrorQueue) int {
	if q.hash != nil {
		return q.hash.Len()
	}
	return q.list.Len()
}

// SubmitRequest delivers a host request to the NIC after the host-bus
// latency. It is called from the host side (any goroutine-context that is
// currently executing in the simulation).
func (n *NIC) SubmitRequest(req HostRequest) {
	n.eng.Schedule(params.HostBusLatency, func() {
		// Fig. 1: new posted receives are replicated to the unexpected
		// ALPU by hardware as they arrive at the NIC (when engaged).
		if req.Kind == ReqRecv && n.unexp.engaged {
			b, m := match.PackRecv(req.Recv)
			n.unexp.dev.PushProbe(alpu.Probe{Bits: b, Mask: m, Meta: req.ID})
			n.unexp.probed[req.ID] = true
		}
		n.HostQ.Push(req)
		n.kick.Raise()
	})
}

// CompletionStatus is the receive-side completion envelope (the model's
// MPI_Status): who the matched message came from, its tag, and its size.
type CompletionStatus struct {
	Valid  bool
	Source int32
	Tag    int32
	Size   int
}

// statusOf builds a CompletionStatus from a matched envelope.
func statusOf(hdr match.Header, size int) CompletionStatus {
	return CompletionStatus{Valid: true, Source: hdr.Source, Tag: hdr.Tag, Size: size}
}

// complete reports request completion to the host layer.
func (n *NIC) complete(reqID uint64, at sim.Time, st CompletionStatus) {
	n.stats.Completions++
	if n.tracer != nil {
		n.tracer.Instant(n.cfg.ID, tidFirmware, "mpi", "complete", n.eng.Now())
	}
	if n.Complete != nil {
		n.Complete(reqID, at, st)
	}
}

// stampCompletion records the Complete and HostDone phase stamps for a
// matched message, mirroring the host layer's completion timing exactly:
// the completion lands no earlier than the firmware's current time, and
// the host observes it one host-bus crossing later (host.Request.DoneAt).
func (n *NIC) stampCompletion(hdr match.Header, done sim.Time) {
	if n.causal == nil {
		return
	}
	at := done
	if now := n.eng.Now(); at < now {
		at = now
	}
	key := uint64(match.Pack(hdr))
	n.causal.Stamp(key, telemetry.StampComplete, at)
	n.causal.Stamp(key, telemetry.StampHostDone, at+params.HostBusLatency)
}

// PublishTelemetry harvests the NIC's struct counters into the registry
// under "nic<ID>/...". Live counters (reliability, protocol errors,
// match-depth histograms) already reside there; this publishes the
// snapshot-time view of everything else. Idempotent.
func (n *NIC) PublishTelemetry() {
	pre := fmt.Sprintf("nic%d", n.cfg.ID)
	s := n.stats
	n.reg.Counter(pre + "/fw/packets_handled").Set(s.PacketsHandled)
	n.reg.Counter(pre + "/fw/host_reqs_handled").Set(s.HostReqsHandled)
	n.reg.Counter(pre + "/fw/entries_traversed").Set(s.EntriesTraversed)
	n.reg.Counter(pre + "/fw/posted_matches").Set(s.PostedMatches)
	n.reg.Counter(pre + "/fw/unexpected").Set(s.Unexpected)
	n.reg.Counter(pre + "/fw/unexp_matches").Set(s.UnexpMatches)
	n.reg.Counter(pre + "/fw/completions").Set(s.Completions)
	n.reg.Counter(pre + "/fw/insert_episodes").Set(s.InsertEpisodes)
	n.reg.Counter(pre + "/fw/alpu_posted_hits").Set(s.ALPUPostedHits)
	n.reg.Counter(pre + "/fw/alpu_posted_misses").Set(s.ALPUPostedMisses)
	n.reg.Counter(pre + "/fw/alpu_unexp_hits").Set(s.ALPUUnexpHits)
	n.reg.Counter(pre + "/fw/alpu_unexp_misses").Set(s.ALPUUnexpMisses)
	n.reg.Counter(pre + "/fw/alpu_inserts").Set(s.ALPUInserts)
	n.reg.Counter(pre + "/fw/alpu_purges").Set(s.ALPUPurges)
	n.reg.Counter(pre + "/rx/drops").Set(n.ep.RxQ.Drops())
	n.reg.Gauge(pre + "/posted/peak_len").SetMax(int64(n.PeakPostedLen()))
	n.reg.Gauge(pre + "/unexp/peak_len").SetMax(int64(n.unexp.peakLen))
	n.reg.Gauge(pre + "/posted/len").Set(int64(n.PostedLen()))
	n.reg.Gauge(pre + "/unexp/len").Set(int64(n.queueLen(&n.unexp)))
	n.reg.Gauge(pre + "/rxq/len").Set(int64(n.ep.RxQ.Len()))
	n.reg.Gauge(pre + "/hostq/len").Set(int64(n.HostQ.Len()))
	if n.posted.dev != nil {
		n.posted.dev.Publish(n.reg, pre+"/alpu/posted")
	}
	if n.unexp.dev != nil {
		n.unexp.dev.Publish(n.reg, pre+"/alpu/unexp")
	}
	if n.fab != nil {
		n.publishFabric(pre)
	}
	if n.cfg.Reliable {
		n.reg.Gauge(pre + "/rel/pending").Set(int64(n.RelPending()))
	}
	if n.cfg.DeviceFaults() {
		dead := int64(0)
		for _, q := range n.alpuQueues {
			if q.alpuDead {
				dead++
			}
		}
		n.reg.Gauge(pre + "/failover/dead_units").Set(dead)
	}
}
