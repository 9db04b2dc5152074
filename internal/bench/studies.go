package bench

// The application studies that motivated the ALPU (the paper's §I-II,
// following refs [8] and [9]): synthetic but structurally faithful
// communication patterns whose queue behaviour spans the design space —
// nearest-neighbour codes with short queues, manager/worker codes whose
// posted queue grows with the process count and uses MPI_ANY_SOURCE
// heavily, and loosely synchronised codes that build deep unexpected
// queues. Each run reports queue depths, match depths and completion
// time, for baseline and ALPU NICs alike.
//
// Every study takes the world's whole configuration as one mpi.Config
// (Ranks and NIC set; partitions, faults, watchdog and recorders as
// wanted) followed by the pattern's own parameters.

import (
	"fmt"
	"math/rand"

	"alpusim/internal/mpi"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
	"alpusim/internal/trace"
)

// Report summarises one application study run.
type Report struct {
	Name    string
	Ranks   int
	Elapsed sim.Time // time of the last rank to finish

	// Queue behaviour aggregated over all NICs.
	PeakPosted   int
	PeakUnexp    int
	PostedDepths trace.Histogram
	UnexpDepths  trace.Histogram

	// Firmware aggregates.
	EntriesTraversed uint64
	ALPUHits         uint64
	ALPUMisses       uint64

	// Reliability aggregates, nonzero only under Config.Faults.
	FaultsInjected uint64
	Retransmits    uint64
	NacksSent      uint64
	RNRSent        uint64
	Recoveries     uint64
	ProtocolErrors uint64

	// Received holds, per rank, the completion status of every receive
	// in posting order. Only Irregular records it: its wildcard receives
	// make the matching outcome the thing faults must not change.
	Received [][]mpi.Status

	// Telemetry is the world's harvested metrics snapshot; every world
	// owns a registry (Config.Telemetry substitutes an external one), so
	// this is populated on every run.
	Telemetry telemetry.Snapshot
}

func (r Report) String() string {
	return fmt.Sprintf("%s ranks=%d elapsed=%v peakPosted=%d peakUnexp=%d postedDepths{%s} traversed=%d alpuHits=%d",
		r.Name, r.Ranks, r.Elapsed, r.PeakPosted, r.PeakUnexp, r.PostedDepths.String(),
		r.EntriesTraversed, r.ALPUHits)
}

// gather builds a Report from a finished world.
func gather(name string, w *mpi.World, elapsed sim.Time) Report {
	rep := Report{Name: name, Ranks: len(w.NICs), Elapsed: elapsed}
	for _, n := range w.NICs {
		if p := n.PeakPostedLen(); p > rep.PeakPosted {
			rep.PeakPosted = p
		}
		if u := n.PeakUnexpLen(); u > rep.PeakUnexp {
			rep.PeakUnexp = u
		}
		rep.PostedDepths.Merge(n.PostedDepths())
		rep.UnexpDepths.Merge(n.UnexpDepths())
		st := n.Stats()
		rep.EntriesTraversed += st.EntriesTraversed
		rep.ALPUHits += st.ALPUPostedHits + st.ALPUUnexpHits
		rep.ALPUMisses += st.ALPUPostedMisses + st.ALPUUnexpMisses
		rel := n.Rel()
		rep.Retransmits += rel.Retransmits
		rep.NacksSent += rel.NacksSent
		rep.RNRSent += rel.RNRSent
		rep.Recoveries += rel.Recoveries
		rep.ProtocolErrors += n.ErrorsTotal()
	}
	rep.FaultsInjected = w.Net.FaultStats().Total()
	rep.Telemetry = w.TelemetrySnapshot()
	return rep
}

// study runs prog on every rank of a cfg world and reports the world
// under name.
func study(name string, cfg mpi.Config, prog mpi.Program) Report {
	progs := make([]mpi.Program, cfg.Ranks)
	for i := range progs {
		progs[i] = prog
	}
	w, end := runWorld(cfg, progs)
	return gather(name, w, end)
}

// Halo runs a 1-D periodic halo exchange: every iteration each rank
// exchanges msgSize bytes with both neighbours (Sendrecv) and every
// reduceEvery iterations the ranks Allreduce 8 bytes. Queues stay short;
// this is the regime where the paper expects the ALPU to cost (a little)
// rather than pay.
func Halo(cfg mpi.Config, iters, msgSize, reduceEvery int) Report {
	if reduceEvery <= 0 {
		reduceEvery = 10
	}
	name := fmt.Sprintf("halo-1d(ranks=%d iters=%d size=%d)", cfg.Ranks, iters, msgSize)
	return study(name, cfg, func(r *mpi.Rank) {
		c := r.Comm()
		n := c.Size()
		left := (c.Rank() - 1 + n) % n
		right := (c.Rank() + 1) % n
		for it := 0; it < iters; it++ {
			// Exchange with both neighbours; tags separate the directions.
			c.Sendrecv(right, 10, msgSize, left, 10, msgSize)
			c.Sendrecv(left, 11, msgSize, right, 11, msgSize)
			r.Compute(2 * sim.Microsecond) // the stencil update
			if (it+1)%reduceEvery == 0 {
				c.Allreduce(8) // convergence check
			}
		}
	})
}

// MasterWorker runs a manager/worker pattern: the master keeps a window
// of MPI_ANY_SOURCE receives posted (the §II observation that ANY_SOURCE
// use "is most prevalent") plus one explicit-source result receive per
// worker in flight, so its posted receive queue grows with the number of
// workers — the refs [8]/[9] scaling behaviour the ALPU targets.
func MasterWorker(cfg mpi.Config, tasksPerWorker, taskSize, window int) Report {
	if window <= 0 {
		window = 2
	}
	name := fmt.Sprintf("master-worker(ranks=%d tasks=%d size=%d)", cfg.Ranks, tasksPerWorker, taskSize)
	const (
		tagTask   = 1
		tagResult = 2
	)
	return study(name, cfg, func(r *mpi.Rank) {
		c := r.Comm()
		workers := c.Size() - 1
		if workers == 0 {
			return
		}
		if c.Rank() == 0 {
			// Keep a window of result receives outstanding per worker: the
			// posted queue holds ~workers*window entries, so it scales with
			// the process count (the refs [8]/[9] observation). Each
			// completion identifies its worker, which gets the next task.
			total := workers * tasksPerWorker
			var reqs []*mpi.Request
			var owners []int
			sent := make([]int, workers+1)
			outstanding := make([]int, workers+1)
			// Post the whole receive window first (nonblocking), so the
			// posted queue actually reaches workers*window before results
			// start consuming it; then hand out the initial tasks.
			for w := 1; w <= workers; w++ {
				for k := 0; k < window && k < tasksPerWorker; k++ {
					reqs = append(reqs, c.Irecv(w, tagResult, taskSize))
					owners = append(owners, w)
				}
			}
			var taskReqs []*mpi.Request
			for w := 1; w <= workers; w++ {
				for k := 0; k < window && k < tasksPerWorker; k++ {
					taskReqs = append(taskReqs, c.Isend(w, tagTask, taskSize))
					sent[w]++
					outstanding[w]++
				}
			}
			r.Waitall(taskReqs...)
			done := 0
			for done < total {
				i := r.Waitany(reqs...)
				w := owners[i]
				reqs = append(reqs[:i], reqs[i+1:]...)
				owners = append(owners[:i], owners[i+1:]...)
				outstanding[w]--
				done++
				if sent[w] < tasksPerWorker {
					reqs = append(reqs, c.Irecv(w, tagResult, taskSize))
					owners = append(owners, w)
					c.Send(w, tagTask, taskSize)
					sent[w]++
					outstanding[w]++
				}
			}
			// Release the workers.
			for w := 1; w <= workers; w++ {
				c.Send(w, tagTask+1, 0)
			}
		} else {
			// Higher-ranked workers are faster: their results come back
			// first but their receives were posted last (deepest), so the
			// master's matches land deep in its queue — the worst case the
			// ALPU exists for.
			computeT := sim.Time(1+2*(workers-c.Rank())) * 300 * sim.Nanosecond
			got := 0
			for got < tasksPerWorker {
				c.Recv(0, tagTask, taskSize)
				got++
				r.Compute(computeT)
				c.Send(0, tagResult, taskSize)
			}
			c.Recv(0, tagTask+1, 0)
		}
	})
}

// UnexpectedStorm runs a loosely synchronised pattern: every rank blasts
// messages at rank 0 before it has posted anything (building a deep
// unexpected queue); rank 0 then posts its receives consecutively, by
// explicit sender and in reverse tag order, so each posting searches deep
// into the unexpected queue. This is the paper's §VI-C "real life"
// scenario: "Each receive would take progressively longer and would
// impact the application execution time directly. In such a case, the
// ALPU would offer a much greater benefit."
func UnexpectedStorm(cfg mpi.Config, msgsPerRank, msgSize int) Report {
	name := fmt.Sprintf("unexpected-storm(ranks=%d msgs=%d size=%d)", cfg.Ranks, msgsPerRank, msgSize)
	return study(name, cfg, func(r *mpi.Rank) {
		c := r.Comm()
		if c.Rank() != 0 {
			for i := 0; i < msgsPerRank; i++ {
				c.Send(0, 100+i, msgSize)
			}
			c.Barrier()
			return
		}
		c.Barrier() // every sender has finished flooding
		var reqs []*mpi.Request
		for i := msgsPerRank - 1; i >= 0; i-- {
			for src := 1; src < c.Size(); src++ {
				reqs = append(reqs, c.Irecv(src, 100+i, msgSize))
			}
		}
		r.Waitall(reqs...)
	})
}

// Sweep runs an all-to-all-dominated pattern (spectral/transpose codes):
// iters rounds of Alltoall plus a reduction.
func Sweep(cfg mpi.Config, iters, msgSize int) Report {
	name := fmt.Sprintf("sweep-alltoall(ranks=%d iters=%d size=%d)", cfg.Ranks, iters, msgSize)
	return study(name, cfg, func(r *mpi.Rank) {
		c := r.Comm()
		for it := 0; it < iters; it++ {
			c.Alltoall(msgSize)
			c.Allreduce(8)
		}
	})
}

// Irregular runs a randomised sparse communication pattern: each rank
// sends to a few random peers per round (deterministic per seed), with
// receivers posting wildcard receives per round. Mixes unexpected
// arrivals with posted matching at varying depths.
func Irregular(cfg mpi.Config, rounds, degree, msgSize int, seed int64) Report {
	ranks := cfg.Ranks
	name := fmt.Sprintf("irregular(ranks=%d rounds=%d deg=%d)", ranks, rounds, degree)
	// Precompute the traffic matrix so every rank agrees on counts.
	rng := rand.New(rand.NewSource(seed))
	targets := make([][][]int, rounds)
	incoming := make([][]int, rounds)
	for rd := 0; rd < rounds; rd++ {
		targets[rd] = make([][]int, ranks)
		incoming[rd] = make([]int, ranks)
		for src := 0; src < ranks; src++ {
			for d := 0; d < degree; d++ {
				dst := rng.Intn(ranks)
				if dst == src {
					continue
				}
				targets[rd][src] = append(targets[rd][src], dst)
				incoming[rd][dst]++
			}
		}
	}
	received := make([][]mpi.Status, ranks)
	rep := study(name, cfg, func(r *mpi.Rank) {
		c := r.Comm()
		me := c.Rank()
		for rd := 0; rd < rounds; rd++ {
			// Post wildcard receives for everything due this round first,
			// then send; finish the round with a barrier.
			reqs := make([]*mpi.Request, 0, incoming[rd][me])
			for i := 0; i < incoming[rd][me]; i++ {
				reqs = append(reqs, c.Irecv(mpi.AnySource, rd, msgSize))
			}
			for _, dst := range targets[rd][me] {
				c.Send(dst, rd, msgSize)
			}
			r.Waitall(reqs...)
			for _, req := range reqs {
				received[me] = append(received[me], req.Status())
			}
			c.Barrier()
		}
	})
	rep.Received = received
	return rep
}
