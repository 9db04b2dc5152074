package bench

import (
	"fmt"
	"io"
	"strings"

	"alpusim/internal/nic"
	"alpusim/internal/sim"
	"alpusim/internal/stats"
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
	"alpusim/internal/trace"
	"alpusim/internal/workloads"
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
	// Plan.Seed steers the Zipf schedule; the sweep runs fault-free.
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

// params is the plan every configuration of the sweep runs.
func (c *TenancyBenchConfig) params() workloads.TenancyParams {
	return workloads.TenancyParams{Comms: c.Comms, Msgs: c.Msgs, Seed: c.Seed}
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
func matchLatNs(rep workloads.Report, p float64) int64 {
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
	nc := nic.Config{UseALPU: alpuOn}
	if alpuOn {
		nc.Cells = cfg.Cells
	}
	if shards > 1 {
		nc.MatchShards = shards
	}
	world := cfg.WorldConfig(cfg.Ranks, nc)
	if cfg.Series {
		world.Series = telemetry.NewSampler(0, 0)
	}
	rep := workloads.Tenancy(world, cfg.params())
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

// WriteTenancyOutcomes dumps one configuration's receive outcomes in
// posting order plus the digest — the shard-invariance format. Any two
// matching configurations (any shard count, any -par) must produce the
// identical bytes: timing never appears here.
func WriteTenancyOutcomes(out io.Writer, p workloads.TenancyParams, rep workloads.TenancyReport) {
	fmt.Fprintf(out, "tenancy ranks=%d comms=%d msgs=%d seed=%d\n", rep.Ranks, p.Comms, p.Msgs, p.Seed)
	for i, st := range rep.Statuses {
		fmt.Fprintf(out, "recv %4d src=%d tag=%d size=%d\n", i, st.Source, st.Tag, st.Size)
	}
	fmt.Fprintf(out, "digest %016x\n", rep.Digest)
}

// TenancyOutcomes runs one matching configuration (shards <= 1 is the
// single-ALPU baseline, 0 ALPU cells means software list) over the same
// plan RunTenancy uses and returns its report for WriteTenancyOutcomes.
func TenancyOutcomes(cfg TenancyBenchConfig, shards int) (workloads.TenancyParams, workloads.TenancyReport) {
	cfg.norm()
	nc := nic.Config{UseALPU: true, Cells: cfg.Cells}
	if shards > 1 {
		nc.MatchShards = shards
	}
	p := cfg.params()
	return p, workloads.Tenancy(cfg.WorldConfig(cfg.Ranks, nc), p)
}
