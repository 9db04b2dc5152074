package alpusim

// One testing.B benchmark per table and figure of the paper's evaluation
// section (§VI), plus ablation benches for the design choices DESIGN.md
// calls out. Simulated quantities are reported as custom metrics
// (sim-ns-*): wall-clock ns/op measures the simulator, the sim-ns metrics
// measure the modelled hardware.
//
// Regenerate everything at full sweep resolution with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/alpusim -experiment all

import (
	"sync/atomic"
	"testing"

	"alpusim/internal/alpu"
	"alpusim/internal/bench"
	"alpusim/internal/fpga"
	"alpusim/internal/match"
	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/portals"
	"alpusim/internal/sim"
)

// --- Tables IV and V -------------------------------------------------

func benchmarkFPGATable(b *testing.B, v alpu.Variant) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		for _, pub := range fpga.PublishedFor(v) {
			e := fpga.PrototypeParams(v, pub.Cells, pub.BlockSize).Estimate()
			for _, pair := range [...][2]float64{
				{float64(e.LUTs), float64(pub.LUTs)},
				{float64(e.FFs), float64(pub.FFs)},
				{float64(e.Slices), float64(pub.Slices)},
			} {
				err := 100 * abs(pair[0]-pair[1]) / pair[1]
				if err > maxErr {
					maxErr = err
				}
			}
		}
	}
	b.ReportMetric(maxErr, "max-err-%")
}

// BenchmarkTable4 regenerates Table IV (posted receives ALPU prototypes).
func BenchmarkTable4(b *testing.B) { benchmarkFPGATable(b, alpu.PostedReceives) }

// BenchmarkTable5 regenerates Table V (unexpected messages ALPU).
func BenchmarkTable5(b *testing.B) { benchmarkFPGATable(b, alpu.UnexpectedMessages) }

// --- Figure 5 --------------------------------------------------------

// The sweeps run on the zero bench.Plan, which fans their independent
// worlds across GOMAXPROCS workers; the sim-ns metrics are identical at
// any setting (see internal/sweep), only wall-clock ns/op changes.

// worldCounts sums the events, process resumes and goroutine handoffs
// of every world a sweep runs, over each world's engines. The sweeps run
// their worlds on parallel workers, so the sums are atomic.
type worldCounts struct{ events, switches, handoffs atomic.Uint64 }

// observe has bench.WorldObserver fold every drained world into c until
// the returned function removes it.
func (c *worldCounts) observe() (stop func()) {
	bench.WorldObserver = func(w *mpi.World) {
		for _, e := range w.Engines {
			c.events.Add(e.Executed())
			c.switches.Add(e.Switches())
			c.handoffs.Add(e.Handoffs())
		}
	}
	return func() { bench.WorldObserver = nil }
}

// report reports the sums per op: exact counts that do not move with the
// host, so cmd/benchgate fails any rise in them.
func (c *worldCounts) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(float64(c.events.Load())/n, "events/op")
	b.ReportMetric(float64(c.switches.Load())/n, "switches/op")
	b.ReportMetric(float64(c.handoffs.Load())/n, "handoffs/op")
}

// fig5Rep measures the representative cut of a Fig. 5 surface: base
// latency, the in-ALPU (or in-cache) region, and the deep-queue region.
// It also reports the sweep's events, switches and handoffs per op.
func fig5Rep(b *testing.B, kind bench.NICKind) {
	var base, mid, deep sim.Time
	var counts worldCounts
	defer counts.observe()()
	for i := 0; i < b.N; i++ {
		pts := bench.RunPreposted(bench.PrepostedConfig{
			NIC:       bench.NICConfig(kind),
			QueueLens: []int{0, 200, 400},
			Fracs:     []float64{1.0},
		})
		base, mid, deep = pts[0].Latency, pts[1].Latency, pts[2].Latency
	}
	b.ReportMetric(base.Nanoseconds(), "sim-ns-q0")
	b.ReportMetric(mid.Nanoseconds(), "sim-ns-q200")
	b.ReportMetric(deep.Nanoseconds(), "sim-ns-q400")
	counts.report(b)
}

// BenchmarkFig5Baseline regenerates the Fig. 5(a,b) cut: baseline NIC.
func BenchmarkFig5Baseline(b *testing.B) { fig5Rep(b, bench.Baseline) }

// BenchmarkFig5ALPU128 regenerates the Fig. 5(c,d) cut: 128-entry ALPU.
func BenchmarkFig5ALPU128(b *testing.B) { fig5Rep(b, bench.ALPU128) }

// BenchmarkFig5ALPU256 regenerates the Fig. 5(e,f) cut: 256-entry ALPU.
func BenchmarkFig5ALPU256(b *testing.B) { fig5Rep(b, bench.ALPU256) }

// --- Figure 6 --------------------------------------------------------

// fig6Rep measures the representative cut of a Fig. 6 series and, like
// fig5Rep, the sweep's events, switches and handoffs per op.
func fig6Rep(b *testing.B, kind bench.NICKind) {
	var short, mid, deep sim.Time
	var counts worldCounts
	defer counts.observe()()
	for i := 0; i < b.N; i++ {
		pts := bench.RunUnexpected(bench.UnexpectedConfig{
			NIC:       bench.NICConfig(kind),
			QueueLens: []int{0, 100, 300},
		})
		short, mid, deep = pts[0].Latency, pts[1].Latency, pts[2].Latency
	}
	b.ReportMetric(short.Nanoseconds(), "sim-ns-u0")
	b.ReportMetric(mid.Nanoseconds(), "sim-ns-u100")
	b.ReportMetric(deep.Nanoseconds(), "sim-ns-u300")
	counts.report(b)
}

// BenchmarkFig6Baseline regenerates the Fig. 6 baseline series cut.
func BenchmarkFig6Baseline(b *testing.B) { fig6Rep(b, bench.Baseline) }

// BenchmarkFig6ALPU128 regenerates the Fig. 6 128-entry ALPU series cut.
func BenchmarkFig6ALPU128(b *testing.B) { fig6Rep(b, bench.ALPU128) }

// BenchmarkFig6ALPU256 regenerates the Fig. 6 256-entry ALPU series cut.
func BenchmarkFig6ALPU256(b *testing.B) { fig6Rep(b, bench.ALPU256) }

// --- Ablations (DESIGN.md §4) ----------------------------------------

// BenchmarkAblationBlockSize exercises the §III-B block-size trade-off:
// smaller blocks clock faster but cost more logic; the pipeline depth
// follows the geometry rule. Reported per block size: device-level match
// latency and the estimator's slice count.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int{8, 16, 32} {
		bs := bs
		b.Run(benchName("block", bs), func(b *testing.B) {
			cfg := alpu.Config{
				Geometry: alpu.Geometry{Cells: 256, BlockSize: bs},
				// MatchCycles 0: use the geometry's pipeline rule, at the
				// FPGA-measured clock for this block size.
			}
			est := fpga.PrototypeParams(alpu.PostedReceives, 256, bs).Estimate()
			cfg.Clock = sim.MHz(int64(est.FreqMHz))
			var matchNs float64
			for i := 0; i < b.N; i++ {
				matchNs = deviceMatchLatency(cfg)
			}
			b.ReportMetric(matchNs, "sim-ns-match")
			b.ReportMetric(float64(est.Slices), "slices")
			b.ReportMetric(est.FreqMHz, "MHz")
		})
	}
}

// deviceMatchLatency measures one probe through an idle, single-entry
// device.
func deviceMatchLatency(cfg alpu.Config) float64 {
	eng := sim.NewEngine()
	dev := alpu.MustDevice(eng, "alpu", cfg, alpu.Env{Variant: alpu.PostedReceives})
	var lat sim.Time
	eng.Spawn("drv", func(p *sim.Process) {
		dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
		p.WaitCond(dev.Results.NotEmpty, func() bool { return dev.Results.Len() > 0 })
		dev.Results.Pop()
		bits, mask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
		dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: bits, Mask: mask, Tag: 1})
		dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
		p.Sleep(sim.Microsecond)
		start := p.Now()
		dev.PushProbe(alpu.Probe{Bits: match.Pack(match.Header{Context: 1, Source: 2, Tag: 3})})
		p.WaitCond(dev.Results.NotEmpty, func() bool { return dev.Results.Len() > 0 })
		lat = p.Now() - start
	})
	eng.Run()
	return lat.Nanoseconds()
}

// BenchmarkAblationThreshold exercises the §VI-B heuristic: with a
// threshold of 10 the ALPU stays disengaged for short queues, avoiding
// its ~80 ns interface penalty, while long queues still get the full
// benefit. (The preposted workload keeps a handful of matching receives
// posted, so a queue-length-2 point holds ~5 entries.)
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []int{0, 10} {
		th := th
		b.Run(benchName("threshold", th), func(b *testing.B) {
			var shortQ, longQ sim.Time
			for i := 0; i < b.N; i++ {
				cfg := nic.Config{UseALPU: true, Cells: 256, Threshold: th}
				pts := bench.RunPreposted(bench.PrepostedConfig{
					NIC: cfg, QueueLens: []int{2, 100}, Fracs: []float64{1.0},
				})
				shortQ, longQ = pts[0].Latency, pts[1].Latency
			}
			b.ReportMetric(shortQ.Nanoseconds(), "sim-ns-q2")
			b.ReportMetric(longQ.Nanoseconds(), "sim-ns-q100")
		})
	}
}

// BenchmarkAblationHashList exercises the §II discussion: hash-table
// queues help exact-match search but penalise insertion and wildcard
// probes; the paper rejected them for the latency-critical short-queue
// case. Reported: zero-queue latency (insert cost visible) and deep-queue
// latency (search win visible).
func BenchmarkAblationHashList(b *testing.B) {
	for _, cfg := range []struct {
		name string
		nic  nic.Config
	}{
		{"list", nic.Config{}},
		{"hash", nic.Config{UseHashList: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var q0, q400 sim.Time
			for i := 0; i < b.N; i++ {
				pts := bench.RunPreposted(bench.PrepostedConfig{
					NIC: cfg.nic, QueueLens: []int{0, 400}, Fracs: []float64{1.0},
				})
				q0, q400 = pts[0].Latency, pts[1].Latency
			}
			b.ReportMetric(q0.Nanoseconds(), "sim-ns-q0")
			b.ReportMetric(q400.Nanoseconds(), "sim-ns-q400")
		})
	}
}

// BenchmarkAblationCompaction compares the prototype's block-granular
// "space available" rule with the wider any-higher-block alternative
// §III-B mentions. The paper argues the restricted rule "is likely
// sufficient for all real cases": end-to-end latency should match, with
// the wide rule draining holes in fewer active cycles (sim-shift-cycles)
// and a burst of inserts into a fragmented array completing no later.
func BenchmarkAblationCompaction(b *testing.B) {
	for _, any := range []bool{false, true} {
		any := any
		name := "block-rule"
		if any {
			name = "any-block"
		}
		b.Run(name, func(b *testing.B) {
			var burst, lat sim.Time
			for i := 0; i < b.N; i++ {
				burst = insertBurstTime(any)
				acfg := alpu.DefaultConfig(256)
				acfg.CompactAnyBlock = any
				ncfg := nic.Config{UseALPU: true, Cells: 256, ALPUConfig: &acfg}
				pts := bench.RunPreposted(bench.PrepostedConfig{
					NIC: ncfg, QueueLens: []int{100}, Fracs: []float64{1.0},
				})
				lat = pts[0].Latency
			}
			b.ReportMetric(burst.Nanoseconds(), "sim-ns-burst")
			b.ReportMetric(lat.Nanoseconds(), "sim-ns-q100")
		})
	}
}

// insertBurstTime fragments a device (spaced inserts), then times a burst
// of inserts that must wait for holes to drain to cell 0.
func insertBurstTime(anyBlock bool) sim.Time {
	cfg := alpu.DefaultConfig(256)
	cfg.CompactAnyBlock = anyBlock
	eng := sim.NewEngine()
	dev := alpu.MustDevice(eng, "alpu", cfg, alpu.Env{Variant: alpu.PostedReceives})
	var burst sim.Time
	eng.Spawn("drv", func(p *sim.Process) {
		bits, mask := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
		ack := func() {
			p.WaitCond(dev.Results.NotEmpty, func() bool { return dev.Results.Len() > 0 })
			dev.Results.Pop()
		}
		// Fragment: inserts spaced so entries migrate apart.
		for k := 0; k < 64; k++ {
			dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
			ack()
			dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: bits, Mask: mask, Tag: uint32(k)})
			dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
			p.Sleep(20 * sim.Nanosecond)
		}
		// Burst.
		start := p.Now()
		dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
		ack()
		for k := 0; k < 128; k++ {
			for !dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: bits, Mask: mask, Tag: uint32(100 + k)}) {
				p.WaitCond(dev.Commands.NotFull, func() bool { return !dev.Commands.Full() })
			}
		}
		for !dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert}) {
			p.WaitCond(dev.Commands.NotFull, func() bool { return !dev.Commands.Full() })
		}
		for dev.InsertMode() || dev.Commands.Len() > 0 {
			p.Sleep(10 * sim.Nanosecond)
		}
		burst = p.Now() - start
	})
	eng.Run()
	return burst
}

// BenchmarkAblationInsertBatch compares conglomerated inserts (§IV-B)
// against one INSERT per START/STOP episode: batching amortises the
// episode handshake across the queue build.
func BenchmarkAblationInsertBatch(b *testing.B) {
	for _, batchMax := range []int{0, 1} {
		batchMax := batchMax
		name := "batched"
		if batchMax == 1 {
			name = "single"
		}
		b.Run(name, func(b *testing.B) {
			var buildDone sim.Time
			var episodes uint64
			for i := 0; i < b.N; i++ {
				cfg := nic.Config{UseALPU: true, Cells: 256, InsertBatchMax: batchMax}
				w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
					func(r *mpi.Rank) { r.Barrier(); r.Send(1, 0x500, 0) },
					func(r *mpi.Rank) {
						for k := 0; k < 200; k++ {
							r.Irecv(0, 0x100+k, 0)
						}
						req := r.Irecv(0, 0x500, 0)
						r.Barrier()
						r.Wait(req)
						buildDone = r.Now()
					},
				})
				episodes = w.NICs[1].Stats().InsertEpisodes
			}
			b.ReportMetric(buildDone.Nanoseconds(), "sim-ns-total")
			b.ReportMetric(float64(episodes), "episodes")
		})
	}
}

// --- Gap / message rate (§I motivation; §VI-B Elan comparison) --------

// BenchmarkGap measures the receiver-side inter-message gap at three
// match depths for each NIC, plus the Quadrics-class comparison point.
func BenchmarkGap(b *testing.B) {
	configs := []struct {
		name string
		nic  nic.Config
	}{
		{"baseline", bench.NICConfig(bench.Baseline)},
		{"alpu-256", bench.NICConfig(bench.ALPU256)},
		{"elan4-class", bench.ElanNICConfig()},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var pts []bench.GapPoint
			for i := 0; i < b.N; i++ {
				pts = bench.RunGap(bench.GapConfig{NIC: cfg.nic, Depths: []int{0, 100}})
			}
			b.ReportMetric(pts[0].NsPerMsg, "sim-ns-msg-d0")
			b.ReportMetric(pts[1].NsPerMsg, "sim-ns-msg-d100")
		})
	}
}

// --- Portals extension (§III-A footnote 7, §VIII future work) ---------

// BenchmarkPortalsWideMatch measures the full-width (64-bit match, mask
// per bit) configuration on a Portals-style match list: software
// traversal cost grows with the list, the ALPU-fronted table stays flat.
// The fpga metrics report what the wide unit would cost on the prototype
// part.
func BenchmarkPortalsWideMatch(b *testing.B) {
	est := fpga.PortalsParams(128, 16).Estimate()
	for _, depth := range []int{8, 64, 120} {
		depth := depth
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var devNs float64
			for i := 0; i < b.N; i++ {
				t := portals.NewAccelTable(128)
				for k := 0; k < depth; k++ {
					t.Attach(&portals.MatchEntry{
						Match:   portals.MatchBits(0xABCD_0000_0000_0000 | uint64(k)),
						UseOnce: true,
					})
				}
				// Match the deepest entry; the unit answers in pipeline
				// time regardless of depth.
				before := t.DeviceTime
				t.ProcessPut(portals.Put{Bits: portals.MatchBits(0xABCD_0000_0000_0000 | uint64(depth-1))}, 0)
				devNs = (t.DeviceTime - before).Nanoseconds()
			}
			b.ReportMetric(devNs, "sim-ns-match")
			b.ReportMetric(float64(est.Slices), "wide-unit-slices")
			b.ReportMetric(est.FreqMHz, "wide-unit-MHz")
		})
	}
}

// --- helpers ----------------------------------------------------------

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
