// Package bench implements the two benchmarks of §V-A — the pre-posted
// receive queue benchmark behind Fig. 5 and the unexpected message queue
// benchmark behind Fig. 6 — plus the NIC configurations they compare
// (baseline, 128-entry ALPU, 256-entry ALPU) and helpers that extract the
// §VI-B text anchors from the measured series. The experiments built on
// them (gap, chaos, devchaos, phases, critpath, tenancy) and the
// application studies of §I-II live here too, so every world they run
// goes through one function, runWorld, and reaches WorldObserver.
package bench

import (
	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
)

// Tags used by the workloads. NoMatchTag entries never match a probe;
// MatchBase+k is iteration k's probe; control-flow tags are above those.
const (
	noMatchTag = 0x1000
	matchBase  = 0x2000
	doneTag    = 0x3000
	goTag      = 0x3001
	ackBase    = 0x3100
)

// NICKind names the three evaluated configurations.
type NICKind int

const (
	// Baseline is the embedded-processor-only NIC (Red-Storm-like, §VI-B).
	Baseline NICKind = iota
	// ALPU128 adds 128-entry units for both queues.
	ALPU128
	// ALPU256 adds 256-entry units for both queues.
	ALPU256
)

func (k NICKind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case ALPU128:
		return "alpu-128"
	case ALPU256:
		return "alpu-256"
	default:
		return "custom"
	}
}

// WorldObserver, when set before any sweep starts, receives every world
// an experiment or application study runs, after it has drained — the
// live observability hook: obs.CLI wires it under -serve to fold each
// world's telemetry snapshot into the /metrics endpoint. Only the stall
// world, which never drains, is not observed. Called from sweep worker
// goroutines, so the observer must be safe for concurrent use; the world
// itself is finished and exclusively owned by the caller. Observation
// must not (and cannot) change any measured value.
var WorldObserver func(w *mpi.World)

// runWorld runs progs[i] as rank i of a cfg world, hands the drained
// world to WorldObserver and returns it with the time the last rank's
// program returned. Every world of the package runs through it.
func runWorld(cfg mpi.Config, progs []mpi.Program) (*mpi.World, sim.Time) {
	// Per-rank finish times, folded after the run: rank goroutines on
	// different partitions finish concurrently, so a shared max would race.
	finished := make([]sim.Time, len(progs))
	timed := make([]mpi.Program, len(progs))
	for i, prog := range progs {
		timed[i] = func(r *mpi.Rank) {
			prog(r)
			finished[i] = r.Now()
		}
	}
	w := mpi.RunPrograms(cfg, timed)
	if f := WorldObserver; f != nil {
		f(w)
	}
	var last sim.Time
	for _, t := range finished {
		last = max(last, t)
	}
	return w, last
}

// Plan is the run context every experiment shares and each config
// embeds: how many worlds run at once, the seed, the fault model and the
// template every world is built from. obs.CLI builds it from the -jobs,
// -par, -faults, -seed and -flightsize flags; the zero Plan runs
// fault-free serial-engine worlds on GOMAXPROCS workers.
type Plan struct {
	// Jobs is the number of worlds run in parallel; <= 0 selects
	// runtime.GOMAXPROCS(0), 1 runs sequentially. Every world is
	// independent, so results are identical at any setting.
	Jobs int
	// Seed seeds the experiments' traffic plans and fault streams.
	Seed int64
	// Faults, when set, runs the chaos, devchaos, phases and critpath
	// experiments over this fault model; the other harnesses ignore it.
	Faults *network.FaultModel
	// World is the template every world starts from: partitions, flight
	// ring size and logger. The harnesses set Ranks and NIC, and their
	// fault model and watchdog. A world must own its recorders, so set
	// Telemetry, Tracer, Causal or Series only when the config describes
	// a single world (the phases, chaos and critpath harnesses build a
	// config per cell).
	World mpi.Config
}

// WorldConfig is the template completed with ranks ranks on nc.
func (p Plan) WorldConfig(ranks int, nc nic.Config) mpi.Config {
	w := p.World
	w.Ranks, w.NIC = ranks, nc
	return w
}

// NICConfig returns the nic.Config for a named configuration.
func NICConfig(k NICKind) nic.Config {
	switch k {
	case ALPU128:
		return nic.Config{UseALPU: true, Cells: 128}
	case ALPU256:
		return nic.Config{UseALPU: true, Cells: 256}
	default:
		return nic.Config{}
	}
}

// PrepostedPoint is one cell of the Fig. 5 surface.
type PrepostedPoint struct {
	QueueLen  int     // non-matching entries in the posted receive queue
	Frac      float64 // requested fraction of the queue to traverse
	Traversed int     // entries actually in front of the match
	MsgSize   int
	Latency   sim.Time // one-way: send start (host) -> recv complete (host)
}

// PrepostedConfig parameterises the Fig. 5 benchmark (§V-A: three degrees
// of freedom — queue length, portion traversed, message size).
type PrepostedConfig struct {
	NIC       nic.Config
	QueueLens []int
	Fracs     []float64
	MsgSize   int
	// Iters is the number of measured probes per point; the final
	// iteration (cache steady state) is reported. Default 3.
	Iters int
	// Plan runs every point as a two-rank world on NIC built from
	// Plan.World (whose faults and watchdog apply; Plan.Faults does not).
	Plan
}

// iters-many matching receives are pre-posted back to back at the chosen
// depth, so that consuming iteration k's entry leaves iteration k+1's at
// the same depth — traversal depth is constant across iterations without
// re-posting (which would move the entry to the tail).
func (c PrepostedConfig) iters() int {
	if c.Iters <= 0 {
		return 3
	}
	return c.Iters
}

// prepostedCell is one (queue length, fraction, traversed) cell of the
// surface, enumerated up front so the sweep engine can fan the cells out.
type prepostedCell struct {
	q int
	f float64
	p int
}

func (c PrepostedConfig) cells() []prepostedCell {
	var cells []prepostedCell
	for _, q := range c.QueueLens {
		seen := map[int]bool{}
		for _, f := range c.Fracs {
			p := int(f*float64(q) + 0.5)
			if p > q {
				p = q
			}
			if seen[p] {
				continue // distinct fractions can alias at small Q
			}
			seen[p] = true
			cells = append(cells, prepostedCell{q: q, f: f, p: p})
		}
	}
	return cells
}

// RunPreposted measures the full surface for one NIC configuration. Each
// point runs in a fresh two-node world: rank 0 sends the probe messages,
// rank 1 holds the pre-posted queue. Points are independent worlds and run
// on cfg.Jobs workers; the result order is the enumeration order
// regardless of parallelism.
func RunPreposted(cfg PrepostedConfig) []PrepostedPoint {
	cells := cfg.cells()
	return sweep.Map(cfg.Jobs, len(cells), func(i int) PrepostedPoint {
		c := cells[i]
		lat, _ := prepostedPoint(cfg, c.q, c.p)
		return PrepostedPoint{
			QueueLen: c.q, Frac: c.f, Traversed: c.p,
			MsgSize: cfg.MsgSize, Latency: lat,
		}
	})
}

// prepostedPoint measures one (queue length, traversed) cell, returning
// the drained world for stats extraction (chaos harness).
func prepostedPoint(cfg PrepostedConfig, q, p int) (sim.Time, *mpi.World) {
	iters := cfg.iters()
	causal := cfg.World.Causal
	sendStart := make([]sim.Time, iters)
	recvDone := make([]sim.Time, iters)

	progs := []mpi.Program{
		// Rank 0: probe sender. Pre-posts its ack receives so the
		// return path never traverses a long queue.
		func(r *mpi.Rank) {
			acks := make([]*mpi.Request, iters)
			for k := 0; k < iters; k++ {
				acks[k] = r.Irecv(1, ackBase+k, 0)
			}
			r.Barrier()
			for k := 0; k < iters; k++ {
				key := mpi.MsgKey(0, matchBase+k)
				sendStart[k] = r.Now()
				causal.Stamp(key, telemetry.StampInject, r.Now())
				// Rank 0 alone records the cause links — it owns the static
				// dependency structure of this workload: the ack exists
				// because the probe matched, and the next probe is posted
				// only once the ack completed. Single-writer, so the links
				// are identical at any partition count.
				causal.Cause(mpi.MsgKey(1, ackBase+k), key)
				if k > 0 {
					causal.Cause(key, mpi.MsgKey(1, ackBase+k-1))
				}
				r.Send(1, matchBase+k, cfg.MsgSize)
				r.Wait(acks[k])
			}
		},
		// Rank 1: queue holder. Builds [p non-matching][iters matching]
		// [q-p non-matching], then consumes the matching entries in order.
		func(r *mpi.Rank) {
			for i := 0; i < p; i++ {
				r.Irecv(0, noMatchTag+i, 0)
			}
			matches := make([]*mpi.Request, iters)
			for k := 0; k < iters; k++ {
				matches[k] = r.Irecv(0, matchBase+k, cfg.MsgSize)
			}
			for i := p; i < q; i++ {
				r.Irecv(0, noMatchTag+i, 0)
			}
			r.Barrier()
			for k := 0; k < iters; k++ {
				r.Wait(matches[k])
				recvDone[k] = matches[k].DoneAt()
				r.Send(0, ackBase+k, 0)
			}
		},
	}
	w, _ := runWorld(cfg.WorldConfig(2, cfg.NIC), progs)
	// Report the final iteration: cache and ALPU state have reached the
	// steady state the paper's repeated-iteration benchmark measures.
	return recvDone[iters-1] - sendStart[iters-1], w
}

// UnexpectedPoint is one point of the Fig. 6 series.
type UnexpectedPoint struct {
	QueueLen int
	MsgSize  int
	Latency  sim.Time
}

// UnexpectedConfig parameterises the Fig. 6 benchmark (§V-A: queue length
// and message size only).
type UnexpectedConfig struct {
	NIC       nic.Config
	QueueLens []int
	MsgSize   int
	// Plan: as in PrepostedConfig.
	Plan
}

// RunUnexpected measures latency — including the time to post the
// receive, overlapped with the transfer (§V-A, §VI-C) — as a function of
// the unexpected queue length. Points run on cfg.Jobs parallel worlds.
func RunUnexpected(cfg UnexpectedConfig) []UnexpectedPoint {
	return sweep.Map(cfg.Jobs, len(cfg.QueueLens), func(i int) UnexpectedPoint {
		u := cfg.QueueLens[i]
		lat, _ := unexpectedPoint(cfg, u)
		return UnexpectedPoint{
			QueueLen: u,
			MsgSize:  cfg.MsgSize,
			Latency:  lat,
		}
	})
}

func unexpectedPoint(cfg UnexpectedConfig, u int) (sim.Time, *mpi.World) {
	var t0, t1 sim.Time

	progs := []mpi.Program{
		// Rank 0: floods rank 1 with u unexpected messages, then a DONE
		// marker; on GO it sends the latency-measuring message.
		func(r *mpi.Rank) {
			goReq := r.Irecv(1, goTag, 0)
			r.Barrier()
			for i := 0; i < u; i++ {
				r.Send(1, noMatchTag+i, cfg.MsgSize)
			}
			r.Send(1, doneTag, 0)
			r.Wait(goReq)
			cfg.World.Causal.Stamp(mpi.MsgKey(0, matchBase), telemetry.StampInject, r.Now())
			r.Send(1, matchBase, cfg.MsgSize)
		},
		// Rank 1: waits until the flood has fully arrived (DONE is
		// ordered behind it), then measures posting + completing the
		// receive; the posting search overlaps the GO/probe flight.
		func(r *mpi.Rank) {
			done := r.Irecv(0, doneTag, 0)
			r.Barrier()
			r.Wait(done)
			t0 = r.Now()
			r.Send(0, goTag, 0)
			req := r.Irecv(0, matchBase, cfg.MsgSize)
			r.Wait(req)
			t1 = req.DoneAt()
		},
	}
	w, _ := runWorld(cfg.WorldConfig(2, cfg.NIC), progs)
	return t1 - t0, w
}
