package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

// workload is one benchmark input set: a seeded list of simulated worlds.
// The benchmark writes every rank program itself and drives the simulator
// only through its public entry points (mpi.NewWorld, SpawnRank, RunSim,
// TelemetrySnapshot and the stats getters), so it can time each layer
// from outside without touching program code.
type workload struct {
	name string
	why  string
	// worlds is the length of one pass at scale 1, sized for about half a
	// second of host time on a 2-core host; a run repeats the pass until
	// its time is up.
	worlds int
	// plan derives the pass's world list from the seeded stream.
	plan func(rng *rand.Rand, n int) []job
}

// job is one world of a pass, as plain inputs. build turns it into fresh
// rank programs and result slots each time the world runs.
type job struct {
	label string
	build func() *world
}

// world is a built but not yet simulated world.
type world struct {
	cfg   mpi.Config
	progs []mpi.Program
	// export runs the workload's recorder exports after the snapshot and
	// returns how many trace events it wrote; nil means the world only
	// exports its metrics snapshot.
	export func() (int, error)
	// check validates the simulated outcomes after the run (untimed) and
	// returns the words folded into the world's result digest.
	check func() ([]uint64, error)
}

// Tags shared by the Fig. 5/6 programs. noMatchTag entries never match a
// probe; matchBase+k is probe k's tag; control tags sit above those.
const (
	noMatchTag = 0x1000
	matchBase  = 0x2000
	doneTag    = 0x3000
	goTag      = 0x3001
	ackBase    = 0x3100

	// probes is the Fig. 5 program's probe count; the last probe (cache
	// and ALPU steady state) is the reported latency, as in the paper.
	probes = 3
	// msgSize is the probe payload, the figures' default.
	msgSize = 0
)

var (
	baselineNIC = nic.Config{}
	alpu128NIC  = nic.Config{UseALPU: true, Cells: 128}
	alpu256NIC  = nic.Config{UseALPU: true, Cells: 256}
	fabric4NIC  = nic.Config{UseALPU: true, Cells: 128, MatchShards: 4}
)

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{
		name:   "preposted-baseline",
		why:    "Fig. 5 program on the baseline NIC: software list walks through memsys and cache dominate; no ALPU work",
		worlds: 160,
		plan: func(rng *rand.Rand, n int) []job {
			return prepostedPlan(rng, n, []nic.Config{baselineNIC}, 500, false)
		},
	},
	{
		name:   "preposted-alpu",
		why:    "Fig. 5 program on alternating ALPU-128/256: device ticks and process switches dominate; memsys is bypassed",
		worlds: 140,
		plan: func(rng *rand.Rand, n int) []job {
			return prepostedPlan(rng, n, []nic.Config{alpu128NIC, alpu256NIC}, 500, false)
		},
	},
	{
		name:   "unexpected",
		why:    "Fig. 6 program (flood, then post) on baseline and ALPU-256: the same queues driven by inserts, not searches",
		worlds: 60,
		plan:   unexpectedPlan,
	},
	{
		name:   "tenancy",
		why:    "Zipf multi-communicator plan on sw-list, alpu-128 and fabric-4: the only user of the match fabric",
		worlds: 15,
		plan:   tenancyPlanJobs,
	},
	{
		name:   "halo",
		why:    "1-D halo on 32-64 ranks over two partitions: event-dense large worlds whose queues stay short",
		worlds: 13,
		plan:   haloPlan,
	},
	{
		name:   "recorders",
		why:    "full-traversal Fig. 5 cells with every telemetry recorder on and exported: telemetry does most of the work",
		worlds: 90,
		plan: func(rng *rand.Rand, n int) []job {
			return prepostedPlan(rng, n, []nic.Config{baselineNIC, alpu128NIC, alpu256NIC}, 512, true)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// strata draws n integers in [lo, hi], one uniformly from each of n
// equal-width strata, in seeded random order. Every seed draws different
// values, but their spread, and so a pass's total cost, is nearly the same
// from seed to seed; that is what keeps run-to-run spread under the
// metric bounds when each run uses a different seed.
func strata(rng *rand.Rand, n, lo, hi int) []int {
	vals := make([]int, n)
	for i, u := range unitStrata(rng, n) {
		vals[i] = lo + int(u*float64(hi-lo+1))
	}
	return vals
}

// unitStrata draws n values in [0, 1), one from each of n equal strata,
// in seeded random order.
func unitStrata(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = (float64(i) + rng.Float64()) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// share is how many of n worlds dealt round-robin over k
// configurations go to configuration c.
func share(n, k, c int) int { return (n - c + k - 1) / k }

// prepostedPlan draws n Fig. 5 cells with q ~ U[0, maxQ] and, unless
// full, traversed ~ U[0, q], dealt round-robin over the NIC
// configurations. Each configuration draws from its own strata, so each
// sees the whole range whatever the seed. full traverses the whole
// queue and attaches every recorder.
func prepostedPlan(rng *rand.Rand, n int, nics []nic.Config, maxQ int, full bool) []job {
	k := len(nics)
	qs, fs := make([][]int, k), make([][]float64, k)
	for c := range nics {
		qs[c] = strata(rng, share(n, k, c), 0, maxQ)
		fs[c] = unitStrata(rng, share(n, k, c))
	}
	jobs := make([]job, n)
	for i := range jobs {
		nc, q := nics[i%k], qs[i%k][i/k]
		p := q
		if !full {
			p = int(fs[i%k][i/k] * float64(q+1))
		}
		jobs[i] = job{
			label: fmt.Sprintf("%s q=%d p=%d", nicName(nc), q, p),
			build: func() *world {
				var rec *recorders
				if full {
					rec = newRecorders()
				}
				return prepostedWorld(nc, q, p, rec)
			},
		}
	}
	return jobs
}

func unexpectedPlan(rng *rand.Rand, n int) []job {
	nics := []nic.Config{baselineNIC, alpu256NIC}
	us := [][]int{strata(rng, share(n, 2, 0), 0, 500), strata(rng, share(n, 2, 1), 0, 500)}
	jobs := make([]job, n)
	for i := range jobs {
		nc, u := nics[i%2], us[i%2][i/2]
		jobs[i] = job{
			label: fmt.Sprintf("%s u=%d", nicName(nc), u),
			build: func() *world { return unexpectedWorld(nc, u) },
		}
	}
	return jobs
}

// tenancyPlanJobs runs each seeded plan on all three matching
// configurations, so n is rounded up to a multiple of three.
func tenancyPlanJobs(rng *rand.Rand, n int) []job {
	nics := []nic.Config{baselineNIC, alpu128NIC, fabric4NIC}
	var jobs []job
	for len(jobs) < n {
		pl := newTenancyPlan(rng, 8, 12, 512)
		for _, nc := range nics {
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s plan=%d %s", nicName(nc), len(jobs)/len(nics), pl),
				build: func() *world { return tenancyWorld(nc, pl) },
			})
		}
	}
	return jobs
}

func haloPlan(rng *rand.Rand, n int) []job {
	ranks := strata(rng, n, 32, 64)
	jobs := make([]job, n)
	for i := range jobs {
		r := ranks[i]
		jobs[i] = job{
			label: fmt.Sprintf("alpu-128 ranks=%d", r),
			build: func() *world { return haloWorld(r) },
		}
	}
	return jobs
}

func nicName(nc nic.Config) string {
	switch {
	case !nc.UseALPU:
		return "sw-list"
	case nc.MatchShards > 1:
		return fmt.Sprintf("fabric-%d", nc.MatchShards)
	default:
		return fmt.Sprintf("alpu-%d", nc.Cells)
	}
}

// recorders is the full telemetry bundle of one recorders-workload world.
type recorders struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	phases *telemetry.Phases
	causal *telemetry.Causal
	series *telemetry.Sampler
}

func newRecorders() *recorders {
	return &recorders{
		reg:    telemetry.NewRegistry(),
		tracer: telemetry.NewTracer(),
		phases: telemetry.NewPhases(),
		causal: telemetry.NewCausal(),
		series: telemetry.NewSampler(0, 0),
	}
}

// finishTimes records when each rank's program returned; a rank left at
// zero never finished (a deadlock). Each slot has a single writer and is
// read only after RunSim returned.
type finishTimes struct {
	at   []sim.Time
	done []bool
}

func newFinishTimes(ranks int) *finishTimes {
	return &finishTimes{at: make([]sim.Time, ranks), done: make([]bool, ranks)}
}

// wrap records rank i's finish time after prog returns.
func (f *finishTimes) wrap(i int, prog mpi.Program) mpi.Program {
	return func(r *mpi.Rank) {
		prog(r)
		f.at[i] = r.Now()
		f.done[i] = true
	}
}

// elapsed returns the last rank's finish time, or an error naming the
// first rank that never finished.
func (f *finishTimes) elapsed() (sim.Time, error) {
	var last sim.Time
	for i, t := range f.at {
		if !f.done[i] {
			return 0, fmt.Errorf("rank %d never finished", i)
		}
		if t > last {
			last = t
		}
	}
	return last, nil
}

func wantStatus(req *mpi.Request, want mpi.Status) error {
	if got := req.Status(); got != want {
		return fmt.Errorf("receive matched %+v, want %+v", got, want)
	}
	return nil
}

// prepostedWorld is the Fig. 5 program: rank 1 pre-posts
// [p non-matching][probes matching][q-p non-matching] receives, rank 0
// sends one probe per matching entry and waits for each ack. The
// reported latency is the last probe's send start to receive completion.
func prepostedWorld(nc nic.Config, q, p int, rec *recorders) *world {
	sendStart := make([]sim.Time, probes)
	recvDone := make([]sim.Time, probes)
	matches := make([]*mpi.Request, probes)
	fin := newFinishTimes(2)
	var (
		phases *telemetry.Phases
		causal *telemetry.Causal
	)
	if rec != nil {
		phases, causal = rec.phases, rec.causal
	}
	sender := func(r *mpi.Rank) {
		acks := make([]*mpi.Request, probes)
		for k := range acks {
			acks[k] = r.Irecv(1, ackBase+k, 0)
		}
		r.Barrier()
		for k := 0; k < probes; k++ {
			key := mpi.MsgKey(0, matchBase+k)
			sendStart[k] = r.Now()
			phases.Stamp(key, telemetry.StampInject, r.Now())
			causal.Stamp(key, telemetry.StampInject, r.Now())
			// The ack exists because the probe matched, and the next probe
			// is sent only once the ack completed.
			causal.Cause(mpi.MsgKey(1, ackBase+k), key)
			if k > 0 {
				causal.Cause(key, mpi.MsgKey(1, ackBase+k-1))
			}
			r.Send(1, matchBase+k, msgSize)
			r.Wait(acks[k])
		}
	}
	holder := func(r *mpi.Rank) {
		for i := 0; i < p; i++ {
			r.Irecv(0, noMatchTag+i, 0)
		}
		for k := range matches {
			matches[k] = r.Irecv(0, matchBase+k, msgSize)
		}
		for i := p; i < q; i++ {
			r.Irecv(0, noMatchTag+i, 0)
		}
		r.Barrier()
		for k, m := range matches {
			r.Wait(m)
			recvDone[k] = m.DoneAt()
			r.Send(0, ackBase+k, 0)
		}
	}
	wd := &world{
		cfg:   mpi.Config{Ranks: 2, NIC: nc},
		progs: []mpi.Program{fin.wrap(0, sender), fin.wrap(1, holder)},
	}
	var crit telemetry.CausalReport
	if rec != nil {
		rec.apply(&wd.cfg)
		wd.export = func() (int, error) {
			crit, _ = rec.causal.Analyze(3)
			return rec.exportAll()
		}
	}
	wd.check = func() ([]uint64, error) {
		elapsed, err := fin.elapsed()
		if err != nil {
			return nil, err
		}
		words := []uint64{uint64(elapsed)}
		for k, m := range matches {
			if err := wantStatus(m, mpi.Status{Source: 0, Tag: matchBase + k, Size: msgSize}); err != nil {
				return nil, err
			}
			lat := recvDone[k] - sendStart[k]
			if lat <= 0 {
				return nil, fmt.Errorf("probe %d latency %v", k, lat)
			}
			words = append(words, uint64(lat))
		}
		if rec != nil {
			rw, err := rec.check(crit)
			if err != nil {
				return nil, err
			}
			words = append(words, rw...)
		}
		return words, nil
	}
	return wd
}

func (rec *recorders) apply(cfg *mpi.Config) {
	cfg.Telemetry = rec.reg
	cfg.Tracer = rec.tracer
	cfg.Phases = rec.phases
	cfg.Causal = rec.causal
	cfg.Series = rec.series
}

// exportAll writes every recorder's export format to io.Discard: the
// Chrome trace, the sim-time pprof profile and the time series.
func (rec *recorders) exportAll() (int, error) {
	if err := telemetry.WriteTrace(io.Discard, rec.tracer); err != nil {
		return 0, fmt.Errorf("write trace: %w", err)
	}
	if err := telemetry.WriteSimProfile(io.Discard, rec.tracer); err != nil {
		return 0, fmt.Errorf("write sim profile: %w", err)
	}
	if err := rec.series.WriteJSON(io.Discard); err != nil {
		return 0, fmt.Errorf("write series: %w", err)
	}
	return rec.tracer.Len(), nil
}

// check enforces the recorder invariants: every probe's phases telescope
// to its measured total, and the critical-path blame sums to exactly
// 1000 permille.
func (rec *recorders) check(crit telemetry.CausalReport) ([]uint64, error) {
	words := []uint64{uint64(crit.CriticalPath), uint64(rec.tracer.Len())}
	for k := 0; k < probes; k++ {
		b, ok := rec.phases.Breakdown(mpi.MsgKey(0, matchBase+k))
		if !ok {
			return nil, fmt.Errorf("probe %d has no phase breakdown", k)
		}
		var sum sim.Time
		for _, d := range b.Durs {
			sum += d
		}
		if sum != b.Total {
			return nil, fmt.Errorf("probe %d phases sum to %v, total %v", k, sum, b.Total)
		}
		words = append(words, uint64(b.Total))
	}
	if crit.CriticalPath <= 0 {
		return nil, fmt.Errorf("empty critical path")
	}
	permille := 0
	for _, b := range crit.Blame {
		permille += b.Permille
		words = append(words, uint64(b.Permille))
	}
	if permille != 1000 {
		return nil, fmt.Errorf("critical-path blame sums to %d permille", permille)
	}
	return words, nil
}

// unexpectedWorld is the Fig. 6 program: rank 0 floods u unexpected
// messages and a DONE marker; rank 1 then posts the matching receive, and
// the latency runs from the post to its completion.
func unexpectedWorld(nc nic.Config, u int) *world {
	var t0, t1 sim.Time
	var req *mpi.Request
	fin := newFinishTimes(2)
	flooder := func(r *mpi.Rank) {
		goReq := r.Irecv(1, goTag, 0)
		r.Barrier()
		for i := 0; i < u; i++ {
			r.Send(1, noMatchTag+i, msgSize)
		}
		r.Send(1, doneTag, 0)
		r.Wait(goReq)
		r.Send(1, matchBase, msgSize)
	}
	poster := func(r *mpi.Rank) {
		done := r.Irecv(0, doneTag, 0)
		r.Barrier()
		r.Wait(done)
		t0 = r.Now()
		r.Send(0, goTag, 0)
		req = r.Irecv(0, matchBase, msgSize)
		r.Wait(req)
		t1 = req.DoneAt()
	}
	return &world{
		cfg:   mpi.Config{Ranks: 2, NIC: nc},
		progs: []mpi.Program{fin.wrap(0, flooder), fin.wrap(1, poster)},
		check: func() ([]uint64, error) {
			elapsed, err := fin.elapsed()
			if err != nil {
				return nil, err
			}
			if err := wantStatus(req, mpi.Status{Source: 0, Tag: matchBase, Size: msgSize}); err != nil {
				return nil, err
			}
			if t1 <= t0 {
				return nil, fmt.Errorf("latency %v", t1-t0)
			}
			return []uint64{uint64(elapsed), uint64(t1 - t0)}, nil
		},
	}
}

// tenancyPlan is one heavy-tenancy message schedule: comms communicators
// share the world, rank 0 pre-posts one receive per message, and the
// (communicator, source) pairs are Zipf-skewed.
type tenancyPlan struct {
	ranks, comms int
	comm, src    []int
	size         []int
	wild         []bool
	perSender    [][]int // message indices each rank sends, in order
}

// newTenancyPlan deals msgs messages with exact Zipf(1.25) proportions
// over communicators and over senders, one in eight receives
// MPI_ANY_SOURCE and half the payloads 64 bytes. The seed picks the
// order and which communicator, sender, wildcard and size go together,
// so every plan has the same skew and nearly the same cost.
func newTenancyPlan(rng *rand.Rand, ranks, comms, msgs int) tenancyPlan {
	pl := tenancyPlan{
		ranks: ranks, comms: comms,
		comm: dealt(rng, zipfCounts(msgs, comms)),
		src:  dealt(rng, zipfCounts(msgs, ranks-1)),
		size: make([]int, msgs), wild: make([]bool, msgs), perSender: make([][]int, ranks),
	}
	for i, j := range rng.Perm(msgs) {
		if j < msgs/2 {
			pl.size[i] = 64
		}
		// Tags are unique, so a wildcard still matches exactly one message.
		pl.wild[i] = j%8 == 0
	}
	for i := range pl.src {
		pl.src[i]++ // rank 0 receives
		pl.perSender[pl.src[i]] = append(pl.perSender[pl.src[i]], i)
	}
	return pl
}

// zipfCounts splits total into k counts proportional to (1+i)^-1.25,
// the law of rand.NewZipf(r, 1.25, 1, k-1), by largest remainder.
func zipfCounts(total, k int) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(1+i), -1.25)
		sum += w[i]
	}
	counts := make([]int, k)
	left := total
	for i := range w {
		w[i] *= float64(total) / sum
		counts[i] = int(w[i])
		left -= counts[i]
		w[i] -= float64(counts[i])
	}
	for ; left > 0; left-- {
		best := 0
		for i := range w {
			if w[i] > w[best] {
				best = i
			}
		}
		counts[best]++
		w[best] = -1
	}
	return counts
}

// dealt returns counts[v] copies of each value v in seeded order.
func dealt(rng *rand.Rand, counts []int) []int {
	var vs []int
	for v, c := range counts {
		for ; c > 0; c-- {
			vs = append(vs, v)
		}
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// String fingerprints the plan, so labels tell plans apart.
func (pl tenancyPlan) String() string {
	h := newDigest()
	for i := range pl.src {
		wild := uint64(0)
		if pl.wild[i] {
			wild = 1
		}
		h.add(uint64(pl.comm[i]), uint64(pl.src[i]), uint64(pl.size[i]), wild)
	}
	return fmt.Sprintf("%016x", h.sum())
}

func tenancyWorld(nc nic.Config, pl tenancyPlan) *world {
	reqs := make([]*mpi.Request, len(pl.src))
	fin := newFinishTimes(pl.ranks)
	prog := func(r *mpi.Rank) {
		world := r.Comm()
		comms := make([]*mpi.Comm, pl.comms)
		for c := range comms {
			comms[c] = world.Dup()
		}
		if r.Rank() == 0 {
			for i := range reqs {
				src := pl.src[i]
				if pl.wild[i] {
					src = mpi.AnySource
				}
				reqs[i] = comms[pl.comm[i]].Irecv(src, i, pl.size[i])
			}
			world.Barrier()
			r.Waitall(reqs...)
			world.Barrier()
			return
		}
		world.Barrier()
		var sends []*mpi.Request
		for _, i := range pl.perSender[r.Rank()] {
			sends = append(sends, comms[pl.comm[i]].Isend(0, i, pl.size[i]))
		}
		r.Waitall(sends...)
		world.Barrier()
	}
	progs := make([]mpi.Program, pl.ranks)
	for i := range progs {
		progs[i] = fin.wrap(i, prog)
	}
	return &world{
		cfg:   mpi.Config{Ranks: pl.ranks, NIC: nc},
		progs: progs,
		check: func() ([]uint64, error) {
			elapsed, err := fin.elapsed()
			if err != nil {
				return nil, err
			}
			// Every receive must match the one message carrying its tag,
			// whatever the matching configuration: the plan is the oracle.
			h := newDigest()
			for i, req := range reqs {
				want := mpi.Status{Source: pl.src[i], Tag: i, Size: pl.size[i]}
				if err := wantStatus(req, want); err != nil {
					return nil, fmt.Errorf("message %d: %w", i, err)
				}
				h.add(uint64(i), uint64(want.Source), uint64(want.Tag), uint64(want.Size))
			}
			return []uint64{uint64(elapsed), h.sum()}, nil
		},
	}
}

// The halo exchange's shape, as in alpusim -experiment scale.
const (
	haloIters      = 8
	haloBytes      = 1024
	haloPartitions = 2
)

// haloWorld is a 1-D periodic halo exchange on an ALPU-128 NIC over two
// partitions: every iteration each rank swaps haloBytes with both
// neighbours and computes; after the last one the ranks Allreduce 8
// bytes.
func haloWorld(ranks int) *world {
	fin := newFinishTimes(ranks)
	errs := make([]error, ranks) // first wrong receive per rank
	prog := func(r *mpi.Rank) {
		c := r.Comm()
		n := c.Size()
		left, right := (c.Rank()-1+n)%n, (c.Rank()+1)%n
		for it := 0; it < haloIters; it++ {
			for _, d := range [2]struct{ dst, src, tag int }{{right, left, 10}, {left, right, 11}} {
				rreq := c.Irecv(d.src, d.tag, haloBytes)
				sreq := c.Isend(d.dst, d.tag, haloBytes)
				r.Wait(sreq)
				r.Wait(rreq)
				if err := wantStatus(rreq, mpi.Status{Source: d.src, Tag: d.tag, Size: haloBytes}); err != nil && errs[c.Rank()] == nil {
					errs[c.Rank()] = fmt.Errorf("rank %d iteration %d: %w", c.Rank(), it, err)
				}
			}
			r.Compute(2 * sim.Microsecond)
		}
		c.Allreduce(8)
	}
	progs := make([]mpi.Program, ranks)
	for i := range progs {
		progs[i] = fin.wrap(i, prog)
	}
	return &world{
		cfg:   mpi.Config{Ranks: ranks, NIC: alpu128NIC, Partitions: haloPartitions},
		progs: progs,
		check: func() ([]uint64, error) {
			elapsed, err := fin.elapsed()
			if err != nil {
				return nil, err
			}
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			return []uint64{uint64(elapsed), uint64(ranks)}, nil
		},
	}
}
