// Package mpi is the prototype MPI implementation of §V-C: the Fig. 4
// subset (Init/Finalize, Comm_rank/size, Send/Isend, Recv/Irecv,
// Wait/Waitall, Barrier) over MPI_COMM_WORLD, with all queue processing
// performed on the simulated NIC. Application ranks are plain Go
// functions co-simulated with the discrete event engine: each blocking
// call consumes simulated time on the host CPU model, and code between
// calls runs in zero simulated time (use Compute to model computation).
package mpi

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"alpusim/internal/host"
	"alpusim/internal/match"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// Wildcards, as in the MPI standard (§II).
const (
	AnySource = int(match.AnySource)
	AnyTag    = int(match.AnyTag)
)

// worldContext is MPI_COMM_WORLD's context id; context 0 is reserved for
// internal traffic (Barrier).
const (
	systemContext uint16 = 0
	worldContext  uint16 = 1
)

// Config describes the simulated cluster.
type Config struct {
	// Ranks is the number of processes (= nodes; one rank per node).
	Ranks int
	// NIC is every node's NIC build point, passed to each NIC unmodified.
	NIC nic.Config

	// Partitions > 0 runs the world as a conservative parallel simulation:
	// ranks are split into that many contiguous partitions, each with its
	// own engine and worker goroutine, synchronized in barrier windows
	// bounded by the wire-latency lookahead (see sim.PartitionSet).
	// Output is canonical — byte identical for every Partitions >= 1,
	// including under faults — but uses the partition-invariant event
	// tie-break, so it can differ from the Partitions == 0 single-engine
	// schedule in tie-sensitive observables (trace interleavings; never
	// in protocol correctness).
	// Values above Ranks are clamped; 0 keeps the classic serial engine;
	// negative values panic.
	Partitions int

	// Faults installs a fault model (nil = the reliable in-order
	// default). Its wire classes go to the network and force every NIC's
	// reliability protocol on: MPI matching is only correct over in-order
	// loss-free delivery. Every NIC derives its device faults from its
	// device classes (nic.Env).
	Faults *network.FaultModel
	// WatchdogLimit fails the world (panic with *sim.WatchdogError carrying
	// a diagnostic dump) if simulated time passes it — the stall detector
	// for fault mixes that somehow livelock. 0 = no watchdog.
	WatchdogLimit sim.Time

	// Telemetry is the world's metrics registry; nil creates one (shared
	// by all NICs and the network), so TelemetrySnapshot always works.
	Telemetry *telemetry.Registry
	// Tracer records the world's activity as Chrome trace events: NIC
	// firmware/ALPU/reliability tracks plus engine counter sampling.
	Tracer *telemetry.Tracer
	// Causal is the world's per-message lifecycle recorder: pipeline
	// stamps (the phase breakdown), cause links and resource annotations
	// (the critical-path analysis).
	Causal *telemetry.Causal
	// Phases, when set, receives a copy of the world's lifecycle records
	// when RunSim returns; the components record into Causal, or into a
	// private recorder when Causal is unset.
	Phases *telemetry.Phases
	// Series, when set, samples per-NIC time series (queue depths, FIFO
	// occupancy, go-back-N window, fabric balance, rolling match-latency
	// p99) on each engine's front-poll chain at the sampler's interval.
	// The caller's sampler is the master: the world attaches one shard
	// per engine and folds them back canonically when the run ends, so
	// series bytes are identical at any Partitions setting.
	Series *telemetry.Sampler

	// FlightEvents sizes the world's flight recorder: a bounded ring of
	// the most recent trace events, recorded even when no full Tracer is
	// configured, so stall post-mortems show the event history rather
	// than just counters. 0 selects telemetry.DefaultFlightEvents
	// whenever a watchdog is armed or FlightDumpPath is set (and leaves
	// recording off otherwise); < 0 disables recording outright. Ignored
	// when Tracer is set — the full tracer already holds everything.
	FlightEvents int
	// FlightDumpPath, when set, is where the flight recorder is written
	// as Perfetto-loadable trace JSON on watchdog expiry and on the
	// first recoverable NIC protocol error.
	FlightDumpPath string
	// Log, when non-nil, receives structured diagnostics (watchdog
	// expiry, recoverable protocol errors, flight dumps); every record
	// is stamped with the simulated clock. Diagnostics never touch
	// stdout, which belongs to experiment output.
	Log *slog.Logger
}

// World is a built cluster.
type World struct {
	// Eng is the world's engine in single-engine mode; in partitioned
	// mode it aliases partition 0's engine (useful for its clock, not for
	// driving the run — use RunSim).
	Eng   *sim.Engine
	Net   *network.Network
	NICs  []*nic.NIC
	Hosts []*host.Host

	// Tel is the world's metrics registry (never nil); Tracer, Phases,
	// Causal and Series mirror the Config fields (nil when not requested).
	Tel    *telemetry.Registry
	Tracer *telemetry.Tracer
	Phases *telemetry.Phases
	Causal *telemetry.Causal
	Series *telemetry.Sampler

	// Engines holds one engine per partition (one for a serial world).
	Engines     []*sim.Engine
	ps          *sim.PartitionSet    // nil for a serial world
	partOf      []int                // rank -> partition
	wds         []*sim.Watchdog      // per-partition watchdogs
	wdErrs      []*sim.WatchdogError // per-partition expiry, read when quiescent
	pendingDump string               // flight dump requested mid-window (under mu)

	// parts holds one recorder bundle per partition (one for a serial
	// world), folded into the world's recorders when RunSim returns.
	parts    []*recorders
	absorbed bool // bundles folded into Tracer/Causal/Phases/Series

	log          *slog.Logger
	faults       *network.FaultModel // Config.Faults, for stall diagnostics
	flightPath   string
	flightDumped bool

	ranksLive atomic.Int32

	// mu guards the cross-partition mutable state: communicator tables,
	// flight dumping, and the watchdog handoff. In single-engine mode it
	// is uncontended.
	mu sync.Mutex

	// Communicator machinery: deterministic context allocation and the
	// Split value blackboards (the simulation does not model payload
	// bytes, so collective *values* ride beside the real messages).
	nextCtx  uint16
	ctxTable map[string]uint16
	boards   map[string][]any
}

// NewWorld constructs the cluster: network, NICs (with optional ALPUs),
// hosts. Ranks are split into max(Partitions, 1) contiguous partitions,
// one engine each. A partitioned world couples its engines in a
// sim.PartitionSet whose lookahead is the wire latency (the minimum
// cross-partition delivery delay — see DESIGN.md §5.9). Every mutable
// recorder a partition writes during a window lives in the partition's
// recorder bundle (tracer or flight ring, lifecycle recorder, sampler
// shard) or is per partition (slog clock), and bundles merge canonically
// afterwards, so the world's outputs are a pure function of the
// simulation, not of the partition count. A serial world (Partitions ==
// 0) keeps its own schedule: the serial network's tie-break, the engine
// counter track, and a bundle that records straight into the caller's
// recorders.
func NewWorld(cfg Config) *World {
	if cfg.Ranks < 1 {
		panic("mpi: need at least one rank")
	}
	if cfg.Partitions < 0 {
		panic("mpi: negative partition count")
	}
	serial := cfg.Partitions == 0
	nparts := min(max(cfg.Partitions, 1), cfg.Ranks)
	engines := make([]*sim.Engine, nparts)
	for p := range engines {
		engines[p] = sim.NewEngine()
	}
	// Contiguous rank blocks: rank i lives on partition i*P/N, so
	// neighbor-heavy workloads (halo exchange) keep most traffic
	// partition-local.
	partOf := make([]int, cfg.Ranks)
	for i := range partOf {
		partOf[i] = i * nparts / cfg.Ranks
	}
	var net *network.Network
	var ps *sim.PartitionSet
	if serial {
		net = network.New(engines[0], cfg.Ranks)
	} else {
		ps = sim.NewPartitionSet(engines, params.WireLatency)
		net = network.NewPartitioned(ps, partOf)
	}
	if cfg.Faults.WireActive() {
		// Wire classes go to the network; each NIC turns its reliability
		// protocol on for them.
		net.SetFaults(cfg.Faults)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if serial {
		// Engine counter sampling only rides the full tracer: a sampler
		// would flood the small flight ring with counter events and evict
		// the firmware history a post-mortem is actually after. Its track
		// is a single pid 999 stream, so partitioned worlds skip it: a
		// per-partition equivalent would make the trace a function of the
		// partition count.
		telemetry.TraceEngine(engines[0], cfg.Tracer, 0)
	}
	// One recorder bundle per partition: components on partition p
	// record only into bundle p, and absorbShards folds the bundles into
	// the caller's recorders in canonical order after the run.
	parts := make([]*recorders, nparts)
	for p := range parts {
		parts[p] = newRecorders(cfg, engines[p], serial)
	}
	w := &World{
		Eng:        engines[0],
		Net:        net,
		Tel:        reg,
		Tracer:     cfg.Tracer,
		Causal:     cfg.Causal,
		Phases:     cfg.Phases,
		Series:     cfg.Series,
		Engines:    engines,
		ps:         ps,
		partOf:     partOf,
		parts:      parts,
		log:        parts[0].log,
		faults:     cfg.Faults,
		flightPath: cfg.FlightDumpPath,
		nextCtx:    worldContext,
		ctxTable:   make(map[string]uint16),
		boards:     make(map[string][]any),
	}
	var onError func(error)
	if w.flightPath != "" && parts[0].tracer != nil {
		if serial {
			// The world is quiescent inside any event of its one engine,
			// so the dump holds exactly the history up to the first fault.
			onError = func(error) { w.dumpFlight("protocol-error", false) }
		} else {
			// The hook fires on a partition goroutine mid-window, where
			// reading other partitions' bundles would race; defer the dump
			// to the next barrier, where the world is quiescent.
			onError = func(error) { w.requestDump("protocol-error") }
		}
	}
	for i := 0; i < cfg.Ranks; i++ {
		r := parts[partOf[i]]
		n := nic.New(r.eng, i, cfg.NIC, net, nic.Env{
			Telemetry: reg, Log: r.log, ErrorHook: onError,
			Tracer: r.tracer, Causal: r.causal, Series: r.series,
			Faults: cfg.Faults,
		})
		w.NICs = append(w.NICs, n)
		w.Hosts = append(w.Hosts, host.New(r.eng, i, n))
	}
	if cfg.WatchdogLimit > 0 {
		w.wds = make([]*sim.Watchdog, nparts)
		w.wdErrs = make([]*sim.WatchdogError, nparts)
		for p := range w.wds {
			wd := sim.NewWatchdog(engines[p], cfg.WatchdogLimit, 0)
			pp := p
			// Capture the expiry and stop this partition's engine instead
			// of panicking inside an event (on a worker goroutine, when
			// partitioned); surfaceFailures turns it into the world-level
			// failure once everything is quiescent.
			wd.OnFail = func(err *sim.WatchdogError) {
				w.wdErrs[pp] = err
				engines[pp].Stop()
			}
			w.wds[p] = wd
		}
	}
	if ps != nil {
		ps.OnInject = func(p int) {
			if w.wds != nil {
				w.wds[p].Poke()
			}
			// A drained partition's sampler chain stopped re-arming; an
			// injected delivery is about to wake it, so resume the chain
			// at the tick where it left off. The engine was frozen in
			// between, so the resumed ticks sample what the serial run
			// would have.
			parts[p].series.Rearm()
		}
		ps.OnBarrier = w.surfaceFailures
	}
	return w
}

// requestDump records that a partition goroutine wants a flight dump; the
// coordinator performs it at the next barrier.
func (w *World) requestDump(reason string) {
	w.mu.Lock()
	if w.pendingDump == "" && !w.flightDumped {
		w.pendingDump = reason
	}
	w.mu.Unlock()
}

// surfaceFailures runs with every engine quiescent — on the coordinator
// between partition windows, or after a serial world's run returns. It
// performs flight dumps requested mid-window and converts a captured
// watchdog expiry into the world-level panic, diagnostics appended.
func (w *World) surfaceFailures() {
	w.mu.Lock()
	reason := w.pendingDump
	w.pendingDump = ""
	w.mu.Unlock()
	var err *sim.WatchdogError
	for _, e := range w.wdErrs {
		if e != nil {
			err = e
			break
		}
	}
	if reason != "" && err == nil {
		w.dumpFlight(reason, false)
	}
	if err != nil {
		err.Dump += "\n" + w.stallDiag()
		if w.log != nil {
			w.log.Error("watchdog expired", "limit", err.Limit.String())
		}
		w.dumpFlight("watchdog", true)
		panic(err)
	}
}

// RunSim drives the built world to completion — the partition
// coordinator in partitioned mode, the single engine's event loop
// otherwise — and, when it returns, panic included, folds the recorder
// bundles into the world's recorders and then tears the world down
// (Close).
func (w *World) RunSim() {
	defer w.Close()
	w.run()
}

// run is RunSim without the teardown.
func (w *World) run() {
	defer w.absorbShards()
	if w.ps != nil {
		w.ps.Run()
		return
	}
	w.Eng.Run()
	w.surfaceFailures()
}

// Close tears the world down: every process still parked on its engines
// — the NIC firmware loops and any rank left blocked —
// is unwound without recording anything (sim.Engine.Close), so a
// finished world holds no goroutine and is garbage once the caller drops
// it. Results, recorders and statistics stay readable. RunSim calls it
// on every exit; call it directly only for a world that is built but
// never run. Idempotent.
func (w *World) Close() {
	for _, e := range w.Engines {
		e.Close()
	}
}

// absorbShards folds the recorder bundles into the world-level recorders
// in partition order. Absorb skips a serial world's bundle, which already
// is the caller's tracer and lifecycle recorder. Phases receives a copy
// of the folded lifecycle records. Each sampler shard is padded to the
// canonical sample count for the world's end-of-model time — max over
// engines of LastModel, a pure function of the modelled event set —
// before it folds into the master sampler. Idempotent.
func (w *World) absorbShards() {
	if w.absorbed {
		return
	}
	w.absorbed = true
	causals := w.causals()
	w.Tracer.Absorb(w.tracers()...)
	w.Causal.Absorb(causals...)
	if w.Causal != nil {
		// Workloads stamp and link the caller's recorder directly, so the
		// folded recorder is the world's whole record.
		causals = []*telemetry.Causal{w.Causal}
	}
	w.Phases.Absorb(causals...)
	var tEnd sim.Time
	for _, r := range w.parts {
		tEnd = max(tEnd, r.eng.LastModel())
	}
	for _, r := range w.parts {
		r.series.Finalize(tEnd)
		w.Series.AbsorbAs("", r.series)
	}
}

// recorders is one partition's recorder bundle: every recorder the
// components on that partition write during a window, and the logger
// that stamps diagnostics with the partition's clock. A serial world's
// single bundle holds the caller's own tracer (or the flight ring) and
// lifecycle recorder, so its records are never copied or re-sorted; a
// partitioned world gives each partition fresh recorders, which
// absorbShards folds into the caller's.
type recorders struct {
	eng    *sim.Engine
	tracer *telemetry.Tracer  // full tracer or flight ring; nil when off
	causal *telemetry.Causal  // lifecycle recorder; nil when off
	series *telemetry.Sampler // time-series shard; nil when off
	log    *slog.Logger       // nil when Config.Log is
}

// newRecorders builds the bundle of the partition running on eng. own
// makes it a serial world's bundle, which records straight into the
// caller's Tracer and Causal. A lifecycle recorder is armed when the
// config asks for Causal or Phases, a flight ring when no full tracer
// was configured but a watchdog or dump path asks for post-mortem
// capture: the ring accepts the same instrumentation calls with O(N)
// memory, so it can stay on during chaos soaks without changing any
// simulated outcome.
func newRecorders(cfg Config, eng *sim.Engine, own bool) *recorders {
	r := &recorders{eng: eng, log: telemetry.SimLogger(cfg.Log, eng.Now)}
	flight := cfg.FlightEvents
	if flight == 0 && (cfg.WatchdogLimit > 0 || cfg.FlightDumpPath != "") {
		flight = telemetry.DefaultFlightEvents
	}
	switch {
	case cfg.Tracer != nil && own:
		r.tracer = cfg.Tracer
	case cfg.Tracer != nil:
		r.tracer = telemetry.NewTracer()
	case flight > 0:
		r.tracer = telemetry.NewFlightRecorder(flight)
	}
	switch {
	case cfg.Causal != nil && own:
		r.causal = cfg.Causal
	case cfg.Causal != nil || cfg.Phases != nil:
		r.causal = telemetry.NewCausal()
	}
	// The time-series sampler works through a shard even in a serial
	// world, so the fold into the master is identical at any partition
	// count.
	r.series = cfg.Series.Shard()
	r.series.Attach(eng)
	return r
}

// tracers and causals list the bundles' recorders in partition order.
func (w *World) tracers() []*telemetry.Tracer {
	out := make([]*telemetry.Tracer, len(w.parts))
	for i, r := range w.parts {
		out[i] = r.tracer
	}
	return out
}

func (w *World) causals() []*telemetry.Causal {
	out := make([]*telemetry.Causal, len(w.parts))
	for i, r := range w.parts {
		out[i] = r.causal
	}
	return out
}

// stallDiag renders the model diagnostics a watchdog expiry appends to
// its dump: injected faults, the telemetry table and, when causal
// tracing is on, the slowest causal chain. Every partition must be
// quiescent.
func (w *World) stallDiag() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %v injected [%s]\n", w.faults, w.Net.FaultStats().String())
	b.WriteString(w.TelemetrySnapshot().Table())
	if w.Causal != nil {
		m := telemetry.NewCausal()
		m.Absorb(w.causals()...)
		if ch, ok := m.Top1(); ok {
			fmt.Fprintf(&b, "\nslowest causal chain: %s", ch.String())
		}
	}
	return b.String()
}

// flightTracer returns the recorder WriteFlight and dumpFlight render: a
// serial world's own recorder as recorded, or the partition bundles'
// recorders merged into one canonical timeline (nil when recording is
// off). Each partition ring bounds its own history, so a partitioned
// dump can retain up to Partitions x FlightEvents events.
func (w *World) flightTracer() *telemetry.Tracer {
	if w.ps == nil || w.parts[0].tracer == nil {
		return w.parts[0].tracer
	}
	m := telemetry.NewTracer()
	m.Absorb(w.tracers()...)
	return m
}

// FlightStats reports the flight recorder's retained and overwritten
// event counts, summed across partition bundles (0, 0 when recording is
// off).
func (w *World) FlightStats() (events int, dropped uint64) {
	for _, r := range w.parts {
		events += r.tracer.Len()
		dropped += r.tracer.Dropped()
	}
	return events, dropped
}

// WriteFlight writes the flight recorder's retained events as
// Perfetto-loadable trace JSON. It errors when recording is off.
func (w *World) WriteFlight(out io.Writer) error {
	t := w.flightTracer()
	if t == nil {
		return fmt.Errorf("mpi: no flight recorder configured")
	}
	return telemetry.WriteTrace(out, t)
}

// dumpFlight writes the flight recorder to the configured dump path.
// Protocol errors dump once (the history leading to the *first* fault;
// chaos runs note thousands); a watchdog expiry always dumps, replacing
// any earlier error dump with the complete pre-stall history. Runs on
// the simulation goroutine (the barrier coordinator in partitioned
// mode), so no locking is needed.
func (w *World) dumpFlight(reason string, force bool) {
	t := w.flightTracer()
	if w.flightPath == "" || t == nil || (w.flightDumped && !force) {
		return
	}
	w.flightDumped = true
	err := func() error {
		f, err := os.Create(w.flightPath)
		if err != nil {
			return err
		}
		if err := telemetry.WriteTrace(f, t); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}()
	if w.log == nil {
		return
	}
	if err != nil {
		w.log.Error("flight dump failed", "reason", reason, "path", w.flightPath, "err", err.Error())
		return
	}
	w.log.Warn("flight recorder dumped", "reason", reason, "path", w.flightPath,
		"events", t.Len(), "dropped", t.Dropped())
}

// TelemetrySnapshot harvests every component's counters into the world
// registry and returns the frozen snapshot. Call after (or during) a run;
// harvesting is idempotent.
func (w *World) TelemetrySnapshot() telemetry.Snapshot {
	for _, n := range w.NICs {
		n.PublishTelemetry()
	}
	w.Net.Publish(w.Tel)
	if w.absorbed {
		// Series gauges publish only once the run ended and the shards
		// folded; mid-run values would depend on the window schedule.
		w.Series.Publish(w.Tel)
	}
	// Every NIC of a world shares one build point and fault model.
	shards := w.NICs[0].Config().MatchShards
	if w.NICs[0].DeviceFaults() {
		// World-level rollups of the device-fault and failover counters:
		// these become the alpusim_alpu_faults_* / alpusim_nic_failover_*
		// Prometheus families on the /metrics endpoint. Fabric shard units
		// publish per shard.
		w.rollup("nic_failover", []string{"failover"},
			"strikes", "resyncs", "deaths", "shadow_rebuilds",
			"fw_crashes", "fw_restarts", "fault_responses")
		units := []string{"alpu/posted/faults", "alpu/unexp/faults"}
		for s := 0; s < shards; s++ {
			units = append(units, fmt.Sprintf("alpu/posted%d/faults", s))
		}
		w.rollup("alpu_faults", units,
			"bit_flips", "parity_quarantines", "dropped_results",
			"stuck_cycles", "dead_discards")
	}
	if shards > 1 {
		// World-level rollups of the matching-fabric counters: these
		// become the alpusim_match_fabric_* Prometheus families on the
		// /metrics endpoint.
		w.rollup("match_fabric", []string{"fabric"},
			"cache_hits", "cache_misses", "wild_broadcasts", "wild_purges",
			"stale_wild_hits", "overflow_promotions", "overflow_demotions")
	}
	return w.Tel.Snapshot()
}

// rollup sets the world counter group/name, for each name, to the sum
// over every NIC i and unit path u of the counters nic<i>/<u>/<name>.
func (w *World) rollup(group string, units []string, names ...string) {
	for _, name := range names {
		var t uint64
		for i := range w.NICs {
			for _, u := range units {
				t += w.Tel.Counter(fmt.Sprintf("nic%d/%s/%s", i, u, name)).Get()
			}
		}
		w.Tel.Counter(group + "/" + name).Set(t)
	}
}

// MsgKey returns the latency-phase key of a COMM_WORLD message: the
// packed envelope a send from rank src with the given tag puts on the
// wire. Workloads stamp StampInject with it before the send.
func MsgKey(src, tag int) uint64 {
	return uint64(match.Pack(match.Header{Context: worldContext, Source: int32(src), Tag: int32(tag)}))
}

// Rank is the per-process MPI handle passed to application programs.
type Rank struct {
	w  *World
	id int
	p  *sim.Process
	e  *proc.Engine
	h  *host.Host
}

// Request is a nonblocking-operation handle.
type Request struct {
	hr   *host.Request
	rank *Rank
}

// DoneAt reports when the completion became visible to the host (valid
// after Wait). Benchmarks use it for cross-rank one-way latencies.
func (req *Request) DoneAt() sim.Time { return req.hr.DoneAt }

// Status is the completion envelope of a receive (MPI_Status): the rank
// the matched message actually came from (essential for AnySource
// receives), its tag, and its size.
type Status struct {
	Source int
	Tag    int
	Size   int
}

// Status returns the receive's completion status. Valid after the
// request completed; sends return a zero Status.
func (req *Request) Status() Status {
	st := req.hr.Status
	if !st.Valid {
		return Status{Source: -1, Tag: -1}
	}
	return Status{Source: int(st.Source), Tag: int(st.Tag), Size: st.Size}
}

// Program is an application entry point (the rank's "main").
type Program func(r *Rank)

// SpawnRank starts prog as rank id on its partition's engine.
func (w *World) SpawnRank(id int, prog Program) {
	h := w.Hosts[id]
	w.ranksLive.Add(1)
	w.Engines[w.partOf[id]].Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Process) {
		r := &Rank{
			w:  w,
			id: id,
			p:  p,
			e:  proc.New(p, params.HostCPU(), h.Mem()),
			h:  h,
		}
		prog(r)
		w.ranksLive.Add(-1)
	})
}

// Run builds a world, runs prog on every rank, and simulates to
// completion.
func Run(cfg Config, prog Program) *World {
	progs := make([]Program, cfg.Ranks)
	for i := range progs {
		progs[i] = prog
	}
	return RunPrograms(cfg, progs)
}

// RunPrograms runs a distinct program per rank.
func RunPrograms(cfg Config, progs []Program) *World {
	if len(progs) != cfg.Ranks {
		panic("mpi: len(progs) != cfg.Ranks")
	}
	w := NewWorld(cfg)
	for i, prog := range progs {
		w.SpawnRank(i, prog)
	}
	w.RunSim()
	if n := w.ranksLive.Load(); n != 0 {
		panic(fmt.Sprintf("mpi: deadlock — %d ranks still blocked when the event queue drained", n))
	}
	return w
}

// Rank returns the calling process's rank (MPI_Comm_rank on COMM_WORLD).
func (r *Rank) Rank() int { return r.id }

// Size returns the number of ranks (MPI_Comm_size on COMM_WORLD).
func (r *Rank) Size() int { return len(r.w.Hosts) }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Compute models size-independent application computation.
func (r *Rank) Compute(d sim.Time) { r.p.Sleep(d) }

// World returns the cluster (for instrumentation).
func (r *Rank) World() *World { return r.w }

func (r *Rank) isend(ctx uint16, dst, tag, size int) *Request {
	return r.isendAs(ctx, uint16(r.id), dst, tag, size)
}

// isendAs sends with an explicit envelope source (the sender's rank
// within the communicator) to a world-rank destination.
func (r *Rank) isendAs(ctx, srcLocal uint16, dstWorld, tag, size int) *Request {
	if dstWorld < 0 || dstWorld >= r.Size() {
		panic(fmt.Sprintf("mpi: rank %d Isend to invalid world rank %d", r.id, dstWorld))
	}
	id := r.h.NewID()
	hr := r.h.Submit(r.e, nic.HostRequest{
		Kind: nic.ReqSend,
		ID:   id,
		Dst:  dstWorld,
		Hdr:  match.Header{Context: ctx, Source: int32(srcLocal), Tag: int32(tag)},
		Size: size,
	})
	return &Request{hr: hr, rank: r}
}

// allocContext returns a stable fresh context id for a collective
// derivation key; every rank computing the same key receives the same id.
// In partitioned worlds the table is shared across partitions (hence the
// lock); ids for one key are stable, but two *distinct* keys derived
// concurrently from different partitions without intervening
// communication could allocate in either order — collectives that derive
// communicators synchronize first, so in practice the order is fixed by
// the simulation itself.
func (w *World) allocContext(key string) uint16 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c, ok := w.ctxTable[key]; ok {
		return c
	}
	w.nextCtx++
	if int(w.nextCtx) >= 1<<params.ContextBits {
		panic("mpi: context ids exhausted")
	}
	w.ctxTable[key] = w.nextCtx
	return w.nextCtx
}

// splitBoard returns the shared value board for one Split invocation.
func (w *World) splitBoard(ctx uint16, seq, n int) []any {
	key := fmt.Sprintf("%d:%d", ctx, seq)
	w.mu.Lock()
	defer w.mu.Unlock()
	if b, ok := w.boards[key]; ok {
		return b
	}
	b := make([]any, n)
	w.boards[key] = b
	return b
}

func (r *Rank) irecv(ctx uint16, src, tag, size int) *Request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpi: rank %d Irecv from invalid rank %d", r.id, src))
	}
	id := r.h.NewID()
	hr := r.h.Submit(r.e, nic.HostRequest{
		Kind:     nic.ReqRecv,
		ID:       id,
		Recv:     match.Recv{Context: ctx, Source: int32(src), Tag: int32(tag)},
		RecvSize: size,
	})
	return &Request{hr: hr, rank: r}
}

// Isend starts a nonblocking send of size bytes (MPI_Isend).
func (r *Rank) Isend(dst, tag, size int) *Request {
	return r.isend(worldContext, dst, tag, size)
}

// Irecv posts a nonblocking receive (MPI_Irecv). src may be AnySource and
// tag may be AnyTag.
func (r *Rank) Irecv(src, tag, size int) *Request {
	return r.irecv(worldContext, src, tag, size)
}

// Send is the blocking send (MPI_Send: built from Isend + Wait, Fig. 4).
func (r *Rank) Send(dst, tag, size int) {
	r.Wait(r.Isend(dst, tag, size))
}

// Recv is the blocking receive (MPI_Recv: Irecv + Wait, Fig. 4).
func (r *Rank) Recv(src, tag, size int) {
	r.Wait(r.Irecv(src, tag, size))
}

// Wait blocks until a request completes (MPI_Wait).
func (r *Rank) Wait(req *Request) {
	if req.rank != r {
		panic("mpi: Wait on a request from another rank")
	}
	r.h.Wait(r.e, req.hr)
}

// Waitall blocks until every request completes (MPI_Waitall, built from
// Wait per Fig. 4).
func (r *Rank) Waitall(reqs ...*Request) {
	for _, req := range reqs {
		r.Wait(req)
	}
}

// Iprobe checks whether a matching message is waiting in the unexpected
// queue without receiving it (MPI_Iprobe). It returns whether one was
// found and, if so, its status. Note the hardware angle (DESIGN.md): the
// ALPU cannot serve probes — its matches are destructive — so this path
// always costs a software traversal, even on an ALPU NIC.
func (r *Rank) Iprobe(src, tag int) (bool, Status) {
	return r.iprobe(worldContext, src, tag)
}

func (r *Rank) iprobe(ctx uint16, src, tag int) (bool, Status) {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("mpi: rank %d Iprobe from invalid rank %d", r.id, src))
	}
	id := r.h.NewID()
	hr := r.h.Submit(r.e, nic.HostRequest{
		Kind: nic.ReqProbe,
		ID:   id,
		Recv: match.Recv{Context: ctx, Source: int32(src), Tag: int32(tag)},
	})
	r.h.Wait(r.e, hr)
	if !hr.Status.Valid {
		return false, Status{Source: -1, Tag: -1}
	}
	return true, Status{Source: int(hr.Status.Source), Tag: int(hr.Status.Tag), Size: hr.Status.Size}
}

// Waitany blocks until at least one of the requests completes and
// returns its index (MPI_Waitany).
func (r *Rank) Waitany(reqs ...*Request) int {
	if len(reqs) == 0 {
		panic("mpi: Waitany with no requests")
	}
	for {
		for i, req := range reqs {
			if req.hr.Done {
				r.e.Cycles(params.HostCompletionPoll)
				r.h.Retire(req.hr)
				return i
			}
		}
		r.h.WaitAnyProgress(r.e)
	}
}

// Done reports (without blocking beyond a status check) whether the
// request has completed — MPI_Test.
func (r *Rank) Done(req *Request) bool {
	r.e.Cycles(params.HostCompletionPoll)
	return req.hr.Done
}

// Barrier tags on the system context.
const (
	barrierGatherTag  = 0x7ff0
	barrierReleaseTag = 0x7ff1
)

// Barrier synchronises all ranks (MPI_Barrier, built from point-to-point
// operations per Fig. 4): a linear gather to rank 0 and a release fan-out.
func (r *Rank) Barrier() {
	size := r.Size()
	if size == 1 {
		return
	}
	if r.id == 0 {
		for src := 1; src < size; src++ {
			r.wait(r.irecv(systemContext, src, barrierGatherTag, 0))
		}
		for dst := 1; dst < size; dst++ {
			r.wait(r.isend(systemContext, dst, barrierReleaseTag, 0))
		}
	} else {
		r.wait(r.isend(systemContext, 0, barrierGatherTag, 0))
		r.wait(r.irecv(systemContext, 0, barrierReleaseTag, 0))
	}
}

func (r *Rank) wait(req *Request) { r.h.Wait(r.e, req.hr) }
