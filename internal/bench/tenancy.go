package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
	"alpusim/internal/trace"
)

// The heavy-tenancy sweep: the workload motivating the sharded matching
// fabric. K communicators share one receiver, the (communicator, source)
// traffic is Zipf-skewed, and the posted queue peaks far beyond a single
// ALPU's cell count — single-unit overflow thrash for a lone ALPU,
// near-ideal spread for the fabric. Each row runs the identical plan on
// a different matching configuration; the digest column must agree on
// every row (the fabric may cost or save time, never change outcomes).

// TenancyBenchConfig parameterises the sweep.
type TenancyBenchConfig struct {
	Ranks int // world size (0 = 8); rank 0 is the receiver
	Comms int // communicators / tenants (0 = 12)
	Msgs  int // pre-posted receives (0 = 1536)
	Cells int // ALPU cells per matching unit (0 = 128)
	// Shards lists the fabric widths to sweep (nil = 2, 4, 8); the
	// software-list and single-ALPU baselines always run first.
	Shards []int
	// Series attaches a time-series sampler to every configuration's
	// receiver world — the per-config occupancy waterlines behind
	// -report / -timeseries (MergedTenancySeries).
	Series bool
	// Plan.Seed steers the Zipf schedule of Comms x Msgs; the sweep runs
	// fault-free.
	Plan
}

func (c *TenancyBenchConfig) norm() {
	if c.Ranks <= 0 {
		c.Ranks = 8
	}
	if c.Comms <= 0 {
		c.Comms = 12
	}
	if c.Msgs <= 0 {
		c.Msgs = 1536
	}
	if c.Cells <= 0 {
		c.Cells = 128
	}
	if c.Shards == nil {
		c.Shards = []int{2, 4, 8}
	}
}

// nicFor is the matching configuration of one row: the software list
// without alpuOn, else Cells-cell ALPUs, sharded when shards > 1.
func (c *TenancyBenchConfig) nicFor(alpuOn bool, shards int) nic.Config {
	nc := nic.Config{UseALPU: alpuOn}
	if alpuOn {
		nc.Cells = c.Cells
	}
	if shards > 1 {
		nc.MatchShards = shards
	}
	return nc
}

// tenancyReport extends the common Report with the receive outcomes: one
// status per message, in posting order, plus an FNV-1a digest over them.
// The digest is the pattern's correctness fingerprint — every NIC
// configuration (software list, hash list, single ALPU, any fabric shard
// count, any partition count) must produce the identical value.
type tenancyReport struct {
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

func makeTenancyPlan(ranks int, c TenancyBenchConfig) tenancyPlan {
	rng := rand.New(rand.NewSource(c.Seed))
	// Zipf-skewed tenancy: a few (communicator, source) pairs dominate the
	// traffic — the regime the fabric's hot-entry dispatch cache targets —
	// with a long tail spreading entries across every shard.
	zc := rand.NewZipf(rng, 1.25, 1, uint64(c.Comms-1))
	zs := rand.NewZipf(rng, 1.25, 1, uint64(ranks-2))
	pl := tenancyPlan{
		comm:      make([]int, c.Msgs),
		src:       make([]int, c.Msgs),
		size:      make([]int, c.Msgs),
		wild:      make([]bool, c.Msgs),
		perSender: make([][]int, ranks),
	}
	for i := 0; i < c.Msgs; i++ {
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

// tenancy runs the heavy-tenancy pattern on a world of world.Ranks ranks:
// c.Comms communicators share the network, rank 0 pre-posts one receive
// per message (all c.Msgs of them, so the posted queue peaks far beyond
// a single ALPU's cell count), and the senders then fire their
// Zipf-scheduled messages, drawn from c.Seed. Matching is entirely
// posted-side and the receive set spans many (context, source) keys.
func tenancy(world mpi.Config, c TenancyBenchConfig) tenancyReport {
	if world.Ranks < 3 || c.Comms < 1 || c.Msgs < 1 {
		panic(fmt.Sprintf("bench: bad tenancy plan ranks=%d comms=%d msgs=%d", world.Ranks, c.Comms, c.Msgs))
	}
	pl := makeTenancyPlan(world.Ranks, c)
	name := fmt.Sprintf("tenancy(ranks=%d comms=%d msgs=%d)", world.Ranks, c.Comms, c.Msgs)
	statuses := make([]mpi.Status, c.Msgs)
	rep := study(name, world, func(r *mpi.Rank) {
		wc := r.Comm()
		// Collective: every rank dups the same K communicators in the same
		// order, so the contexts agree deterministically.
		comms := make([]*mpi.Comm, c.Comms)
		for i := range comms {
			comms[i] = wc.Dup()
		}
		if r.Rank() == 0 {
			reqs := make([]*mpi.Request, c.Msgs)
			for i := range reqs {
				src := pl.src[i]
				if pl.wild[i] {
					src = mpi.AnySource
				}
				reqs[i] = comms[pl.comm[i]].Irecv(src, i, pl.size[i])
			}
			wc.Barrier() // receives are all posted; release the senders
			r.Waitall(reqs...)
			for i, req := range reqs {
				statuses[i] = req.Status()
			}
			wc.Barrier()
			return
		}
		wc.Barrier() // wait for the receiver to finish posting
		var reqs []*mpi.Request
		for _, i := range pl.perSender[r.Rank()] {
			reqs = append(reqs, comms[pl.comm[i]].Isend(0, i, pl.size[i]))
		}
		r.Waitall(reqs...)
		wc.Barrier()
	})
	// The digest folds index, matched source, tag and size of every
	// receive, in posting order.
	h := newFNV()
	for i, st := range statuses {
		h.add(uint64(i), uint64(int64(st.Source)), uint64(int64(st.Tag)), uint64(int64(st.Size)))
	}
	return tenancyReport{Report: rep, Statuses: statuses, Digest: uint64(h)}
}

// TenancyRow is one configuration row of the report.
type TenancyRow struct {
	Config  string
	Shards  int // 0 = no fabric (software list or single ALPU)
	Digest  uint64
	Match   bool // digest equals the software-list reference
	Elapsed sim.Time

	// Dispatch-cache split and overflow churn (fabric rows only).
	CacheHits, CacheMisses uint64
	Promotions, Demotions  uint64
	WildBroadcasts         uint64

	PeakPosted int
	ShardPeaks []int // receiver NIC, per-shard peak occupancy

	// Match-latency quantiles (ns) over every posted-side search on the
	// receiver, software and ALPU paths alike.
	P50, P95, P99 int64

	// Series is the configuration's time-series sampler (nil unless
	// TenancyBenchConfig.Series was set).
	Series *telemetry.Sampler
}

// matchLatNs merges the per-NIC match-latency histograms (64 ns units)
// and returns the p-quantile in nanoseconds.
func matchLatNs(rep Report, p float64) int64 {
	var h trace.Histogram
	for name, hh := range rep.Telemetry.Hists {
		if strings.HasSuffix(name, "/posted/match_lat64") {
			h.Merge(&hh)
		}
	}
	return int64(h.Percentile(p)) * 64
}

// tenancyRow runs one configuration over the shared plan and harvests
// its row. shards == 0 with alpuOn == false is the software-list
// reference; shards <= 1 with alpuOn is the single-ALPU baseline.
func tenancyRow(cfg TenancyBenchConfig, name string, alpuOn bool, shards int) TenancyRow {
	nc := cfg.nicFor(alpuOn, shards)
	world := cfg.WorldConfig(cfg.Ranks, nc)
	if cfg.Series {
		world.Series = telemetry.NewSampler(0, 0)
	}
	rep := tenancy(world, cfg)
	row := TenancyRow{
		Config: name, Shards: nc.MatchShards, Digest: rep.Digest,
		Elapsed: rep.Elapsed, PeakPosted: rep.PeakPosted,
		P50:    matchLatNs(rep.Report, 0.5),
		P95:    matchLatNs(rep.Report, 0.95),
		P99:    matchLatNs(rep.Report, 0.99),
		Series: world.Series,
	}
	if nc.MatchShards > 1 {
		snap := rep.Telemetry
		row.CacheHits = snap.Counter("nic0/fabric/cache_hits")
		row.CacheMisses = snap.Counter("nic0/fabric/cache_misses")
		row.Promotions = snap.Counter("nic0/fabric/overflow_promotions")
		row.Demotions = snap.Counter("nic0/fabric/overflow_demotions")
		row.WildBroadcasts = snap.Counter("nic0/fabric/wild_broadcasts")
		for i := 0; i < nc.MatchShards; i++ {
			g := snap.Gauges[fmt.Sprintf("nic0/fabric/shard%d/peak_len", i)]
			row.ShardPeaks = append(row.ShardPeaks, int(g))
		}
	}
	return row
}

// RunTenancy runs the software-list reference, the single-ALPU baseline,
// then every fabric width over the identical Zipf plan. Rows run on
// cfg.Jobs parallel worlds; the report is byte-identical regardless.
func RunTenancy(cfg TenancyBenchConfig) []TenancyRow {
	cfg.norm()
	type cell struct {
		name   string
		alpuOn bool
		shards int
	}
	cells := []cell{
		{"sw-list", false, 0},
		{fmt.Sprintf("alpu-%d", cfg.Cells), true, 0},
	}
	for _, s := range cfg.Shards {
		cells = append(cells, cell{fmt.Sprintf("fabric-%d", s), true, s})
	}
	rows := sweep.Map(cfg.Jobs, len(cells), func(i int) TenancyRow {
		c := cells[i]
		return tenancyRow(cfg, c.name, c.alpuOn, c.shards)
	})
	for i := range rows {
		rows[i].Match = rows[i].Digest == rows[0].Digest
	}
	return rows
}

// RenderTenancy writes the sweep as an aligned table plus the headline
// p99 comparison: the fabric's tail win over the single-ALPU baseline.
// Output is a pure function of the config and seed.
func RenderTenancy(out io.Writer, rows []TenancyRow) {
	tb := stats.NewTable("config", "verdict", "digest", "elapsed",
		"cache hit%", "peak(shards)", "promo/demo", "wildcasts",
		"p50 ns", "p95 ns", "p99 ns")
	for _, r := range rows {
		verdict := "MATCH"
		if !r.Match {
			verdict = "DIVERGED"
		}
		cacheCol, peaksCol, churnCol, wildCol := "·", fmt.Sprint(r.PeakPosted), "·", "·"
		if r.Shards > 1 {
			if total := r.CacheHits + r.CacheMisses; total > 0 {
				cacheCol = fmt.Sprintf("%.1f", 100*float64(r.CacheHits)/float64(total))
			}
			peaks := make([]string, len(r.ShardPeaks))
			for i, p := range r.ShardPeaks {
				peaks[i] = fmt.Sprint(p)
			}
			peaksCol = fmt.Sprintf("%d (%s)", r.PeakPosted, strings.Join(peaks, "/"))
			churnCol = fmt.Sprintf("%d/%d", r.Promotions, r.Demotions)
			wildCol = fmt.Sprint(r.WildBroadcasts)
		}
		tb.AddRow(r.Config, verdict, fmt.Sprintf("%016x", r.Digest), r.Elapsed.String(),
			cacheCol, peaksCol, churnCol, wildCol, r.P50, r.P95, r.P99)
	}
	tb.Render(out)
	var base, fab4 *TenancyRow
	for i := range rows {
		r := &rows[i]
		switch {
		case base == nil && r.Shards == 0 && strings.HasPrefix(r.Config, "alpu-"):
			base = r
		case r.Shards == 4:
			fab4 = r
		}
	}
	if base != nil && fab4 != nil && fab4.P99 > 0 {
		fmt.Fprintf(out, "p99 match latency: %s %d ns -> %s %d ns = %.2fx (target >= 2x)\n",
			base.Config, base.P99, fab4.Config, fab4.P99,
			float64(base.P99)/float64(fab4.P99))
	}
}

// MergedTenancySeries folds the per-configuration samplers into one set,
// each row's series prefixed "<config>/" ("alpu-128/nic0/posted/depth",
// "fabric-4/nic0/fabric/shard2/depth", ...) — the waterline comparison
// behind -report and /timeseries. Returns nil when sampling was off.
func MergedTenancySeries(rows []TenancyRow) *telemetry.Sampler {
	return telemetry.MergeSeries(len(rows), func(i int) (string, *telemetry.Sampler) {
		return rows[i].Config + "/", rows[i].Series
	})
}

// WriteTenancyOutcomes runs one matching configuration (shards <= 1 is
// the single-ALPU baseline) over the plan RunTenancy uses and dumps its
// receive outcomes in posting order plus the digest — the
// shard-invariance format. Any two matching configurations (any shard
// count, any -par) must produce the identical bytes: timing never
// appears here.
func WriteTenancyOutcomes(out io.Writer, cfg TenancyBenchConfig, shards int) {
	cfg.norm()
	rep := tenancy(cfg.WorldConfig(cfg.Ranks, cfg.nicFor(true, shards)), cfg)
	fmt.Fprintf(out, "tenancy ranks=%d comms=%d msgs=%d seed=%d\n", rep.Ranks, cfg.Comms, cfg.Msgs, cfg.Seed)
	for i, st := range rep.Statuses {
		fmt.Fprintf(out, "recv %4d src=%d tag=%d size=%d\n", i, st.Source, st.Tag, st.Size)
	}
	fmt.Fprintf(out, "digest %016x\n", rep.Digest)
}
