package workloads

import (
	"fmt"
	"math/rand"

	"alpusim/internal/mpi"
)

// TenancyParams sizes the heavy-tenancy workload; the world size is the
// config's Ranks, with rank 0 the receiver.
type TenancyParams struct {
	Comms int // communicators (tenants), each a Dup of the world comm
	Msgs  int // total messages, all addressed to rank 0
	Seed  int64
}

// TenancyReport extends the common Report with the receive outcomes: one
// status per message, in posting order, plus an FNV-1a digest over them.
// The digest is the workload's correctness fingerprint — every NIC
// configuration (software list, hash list, single ALPU, any fabric shard
// count, any partition count) must produce the identical value.
type TenancyReport struct {
	Report
	Statuses []mpi.Status
	Digest   uint64
}

// tenancyPlan is the precomputed message schedule every rank agrees on.
type tenancyPlan struct {
	comm []int // message i -> communicator index
	src  []int // message i -> sending rank (1..Ranks-1)
	size []int // message i -> payload bytes
	wild []bool
	// perSender[s] lists the message indices rank s sends, in index order.
	perSender [][]int
}

func makeTenancyPlan(ranks int, p TenancyParams) tenancyPlan {
	rng := rand.New(rand.NewSource(p.Seed))
	// Zipf-skewed tenancy: a few (communicator, source) pairs dominate the
	// traffic — the regime the fabric's hot-entry dispatch cache targets —
	// with a long tail spreading entries across every shard.
	zc := rand.NewZipf(rng, 1.25, 1, uint64(p.Comms-1))
	zs := rand.NewZipf(rng, 1.25, 1, uint64(ranks-2))
	pl := tenancyPlan{
		comm:      make([]int, p.Msgs),
		src:       make([]int, p.Msgs),
		size:      make([]int, p.Msgs),
		wild:      make([]bool, p.Msgs),
		perSender: make([][]int, ranks),
	}
	for i := 0; i < p.Msgs; i++ {
		pl.comm[i] = int(zc.Uint64())
		pl.src[i] = 1 + int(zs.Uint64())
		if rng.Intn(2) == 0 {
			pl.size[i] = 64
		}
		// ~1/8 of the receives are posted MPI_ANY_SOURCE: under the fabric
		// these broadcast to every shard. Tags are unique (tag = i), so
		// each wildcard still matches exactly one message and the outcome
		// stays deterministic.
		pl.wild[i] = rng.Intn(8) == 0
		pl.perSender[pl.src[i]] = append(pl.perSender[pl.src[i]], i)
	}
	return pl
}

// Tenancy runs the heavy-tenancy pattern motivating the sharded matching
// fabric: Comms communicators share the network, rank 0 pre-posts one
// receive per message (all Msgs of them, so the posted queue peaks far
// beyond a single ALPU's cell count), and the senders then fire their
// Zipf-scheduled messages. Matching is entirely posted-side and the
// receive set spans many (context, source) keys — single-unit overflow
// thrash for a lone ALPU, near-ideal spread for the fabric.
func Tenancy(cfg mpi.Config, p TenancyParams) TenancyReport {
	if cfg.Ranks < 3 || p.Comms < 1 || p.Msgs < 1 {
		panic(fmt.Sprintf("workloads: bad tenancy params ranks=%d %+v", cfg.Ranks, p))
	}
	pl := makeTenancyPlan(cfg.Ranks, p)
	name := fmt.Sprintf("tenancy(ranks=%d comms=%d msgs=%d)", cfg.Ranks, p.Comms, p.Msgs)
	statuses := make([]mpi.Status, p.Msgs)
	rep := run(name, cfg, func(r *mpi.Rank) {
		world := r.Comm()
		// Collective: every rank dups the same K communicators in the same
		// order, so the contexts agree deterministically.
		comms := make([]*mpi.Comm, p.Comms)
		for c := range comms {
			comms[c] = world.Dup()
		}
		if r.Rank() == 0 {
			reqs := make([]*mpi.Request, p.Msgs)
			for i := 0; i < p.Msgs; i++ {
				src := pl.src[i]
				if pl.wild[i] {
					src = mpi.AnySource
				}
				reqs[i] = comms[pl.comm[i]].Irecv(src, i, pl.size[i])
			}
			world.Barrier() // receives are all posted; release the senders
			r.Waitall(reqs...)
			for i, req := range reqs {
				statuses[i] = req.Status()
			}
			world.Barrier()
			return
		}
		world.Barrier() // wait for the receiver to finish posting
		var reqs []*mpi.Request
		for _, i := range pl.perSender[r.Rank()] {
			reqs = append(reqs, comms[pl.comm[i]].Isend(0, i, pl.size[i]))
		}
		r.Waitall(reqs...)
		world.Barrier()
	})
	return TenancyReport{Report: rep, Statuses: statuses, Digest: TenancyDigest(statuses)}
}

// TenancyDigest folds receive outcomes into an order-sensitive FNV-1a
// fingerprint: index, matched source, tag and size of every receive.
func TenancyDigest(sts []mpi.Status) uint64 {
	h := uint64(0xcbf29ce484222325)
	step := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= 0x100000001b3
		}
	}
	for i, st := range sts {
		step(uint64(i))
		step(uint64(int64(st.Source)))
		step(uint64(int64(st.Tag)))
		step(uint64(int64(st.Size)))
	}
	return h
}
