package nic_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alpusim/internal/alpu"
	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/firmware.golden")

// goldenCell is one world whose firmware cost accounting the golden pins:
// run builds and drains it, returning the cell's own measured time (a
// latency or a completion instant) and the world. A cell whose world logs
// into log also pins the mirror-teardown records, one line each after
// the cell's own.
type goldenCell struct {
	name string
	run  func() (sim.Time, *mpi.World)
	log  *teardownLog
}

// TestFirmwareGolden pins, byte for byte, the firmware paths no cmd golden
// reaches: the EXPERIMENTS.md §5 ablation cells, a hash-list Fig. 6 cell,
// an Iprobe-heavy program on every queue organisation, the §IV-C
// insert-race purge, and a 4-shard fabric whose shard 1 dies mid-run (the
// failed-over hash shadow and the hash branch of the wildcard sibling
// purge) or whose devices fault, rendezvous-size messages matched from
// either queue, and the resync and failover log records of dying units.
// Each line holds the cell's measured time
// and the world's end time in ps, and per NIC the entries traversed, the
// ALPU purges and the posted and unexpected match-depth histograms — so a
// reordered or dropped cost charge anywhere in the queue search moves a
// number. go test ./internal/nic -update rewrites the golden.
func TestFirmwareGolden(t *testing.T) {
	var cells []goldenCell
	hash := nic.Config{UseHashList: true}
	for _, q := range []int{0, 400} {
		cells = append(cells, prepostedCell(fmt.Sprintf("abl-hash/q%d", q), hash, q))
	}
	for _, th := range []int{0, 10} {
		for _, q := range []int{2, 100} {
			cfg := nic.Config{UseALPU: true, Cells: 256, Threshold: th}
			cells = append(cells, prepostedCell(fmt.Sprintf("abl-threshold/th%d/q%d", th, q), cfg, q))
		}
	}
	for _, max := range []int{0, 1} {
		cfg := nic.Config{UseALPU: true, Cells: 256, InsertBatchMax: max}
		cells = append(cells, goldenCell{name: fmt.Sprintf("abl-insertbatch/max%d", max), run: func() (sim.Time, *mpi.World) {
			return insertBatchWorld(cfg)
		}})
	}
	for _, anyBlock := range []bool{false, true} {
		acfg := alpu.DefaultConfig(alpu.PostedReceives, 256)
		acfg.CompactAnyBlock = anyBlock
		cfg := nic.Config{UseALPU: true, Cells: 256, ALPUConfig: &acfg}
		cells = append(cells, prepostedCell(fmt.Sprintf("abl-compaction/any%v/q100", anyBlock), cfg, 100))
	}
	cells = append(cells, goldenCell{name: "fig6-hash/u200", run: func() (sim.Time, *mpi.World) {
		var lat sim.Time
		w := observe(func() {
			lat = bench.RunUnexpected(bench.UnexpectedConfig{NIC: hash, QueueLens: []int{200}})[0].Latency
		})
		return lat, w
	}})
	for _, org := range []struct {
		name string
		cfg  nic.Config
	}{
		{"sw-list", nic.Config{}},
		{"hash", hash},
		{"alpu-256", nic.Config{UseALPU: true, Cells: 256}},
		{"fabric-4", nic.Config{UseALPU: true, Cells: 16, MatchShards: 4}},
	} {
		cfg := org.cfg
		cells = append(cells, goldenCell{name: "iprobe/" + org.name, run: func() (sim.Time, *mpi.World) {
			return iprobeWorld(cfg)
		}})
	}
	cells = append(cells, goldenCell{name: "purge-race/alpu-128", run: purgeRaceWorld})
	cells = append(cells, goldenCell{name: "shard1-death/fabric-4", run: func() (sim.Time, *mpi.World) {
		cfg := fabricFaultCfg()
		cfg.ShardFaults = make([]*alpu.FaultModel, 4)
		cfg.ShardFaults[1] = &alpu.FaultModel{DeathAt: 20 * sim.Microsecond}
		at, w := wildcardRoundsWorld(cfg, nil)
		if !w.NICs[0].ALPUDead("posted1") {
			panic("shard-death golden: shard 1 never failed over")
		}
		return at, w
	}})
	cells = append(cells, goldenCell{name: "devchaos/fabric-4", run: func() (sim.Time, *mpi.World) {
		cfg := fabricFaultCfg()
		cfg.ALPUFaults = &alpu.FaultModel{Seed: 42, BitFlipProb: 0.02, ResultDropProb: 0.03}
		return wildcardRoundsWorld(cfg, nil)
	}})
	for _, org := range []struct {
		name string
		cfg  nic.Config
	}{
		{"sw-list", nic.Config{}},
		{"alpu-256", nic.Config{UseALPU: true, Cells: 256}},
		{"fabric-4", nic.Config{UseALPU: true, Cells: 16, MatchShards: 4}},
	} {
		cfg := org.cfg
		cells = append(cells, goldenCell{name: "rndv/" + org.name, run: func() (sim.Time, *mpi.World) {
			return rndvWorld(cfg)
		}})
	}
	for _, dying := range []struct {
		name string
		cfg  nic.Config
	}{
		{"alpu-16", nic.Config{UseALPU: true, Cells: 16, FaultStrikeLimit: 2,
			FaultResultTimeout: sim.Microsecond, FaultRetryBase: 4 * sim.Microsecond}},
		{"fabric-4", fabricFaultCfg()},
	} {
		cfg, log := dying.cfg, &teardownLog{}
		cfg.ALPUFaults = &alpu.FaultModel{Seed: 7, ResultDropProb: 0.05, DeathAt: 60 * sim.Microsecond}
		cells = append(cells, goldenCell{name: "death-log/" + dying.name, log: log, run: func() (sim.Time, *mpi.World) {
			at, w := wildcardRoundsWorld(cfg, slog.New(log))
			if w.NICs[0].FailoverCount("resyncs") == 0 || w.NICs[0].FailoverCount("deaths") == 0 {
				panic("death-log golden: nic0 never resynced and failed over")
			}
			return at, w
		}})
	}

	var out bytes.Buffer
	for _, c := range cells {
		at, w := c.run()
		fmt.Fprintf(&out, "%s at=%d end=%d", c.name, int64(at), int64(w.Eng.Now()))
		for i, n := range w.NICs {
			st := n.Stats()
			fmt.Fprintf(&out, " | nic%d trav=%d purges=%d posted=%s unexp=%s",
				i, st.EntriesTraversed, st.ALPUPurges, histLine(n.PostedDepths()), histLine(n.UnexpDepths()))
		}
		out.WriteByte('\n')
		if c.log != nil {
			for _, rec := range c.log.records {
				fmt.Fprintf(&out, "  log %s\n", rec)
			}
		}
	}

	path := filepath.Join("testdata", "firmware.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/nic -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d differs:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

// histLine renders every field of a depth histogram.
func histLine(h *trace.Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d/sum%d/max%d[", h.N(), h.Sum(), h.Max())
	for i, bk := range h.Buckets() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", bk.Label, bk.Count)
	}
	b.WriteByte(']')
	return b.String()
}

// observe runs one single-world bench sweep and returns that world.
func observe(run func()) *mpi.World {
	var w *mpi.World
	bench.WorldObserver = func(x *mpi.World) { w = x }
	defer func() { bench.WorldObserver = nil }()
	run()
	return w
}

// prepostedCell is one full-traversal Fig. 5 cell at queue length q.
func prepostedCell(name string, cfg nic.Config, q int) goldenCell {
	return goldenCell{name: name, run: func() (sim.Time, *mpi.World) {
		var lat sim.Time
		w := observe(func() {
			lat = bench.RunPreposted(bench.PrepostedConfig{NIC: cfg, QueueLens: []int{q}, Fracs: []float64{1.0}})[0].Latency
		})
		return lat, w
	}}
}

// insertBatchWorld is the abl-insertbatch build: 200 posted receives and
// one matched probe, returning when the receiver's match completed.
func insertBatchWorld(cfg nic.Config) (sim.Time, *mpi.World) {
	var done sim.Time
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
		func(r *mpi.Rank) { r.Barrier(); r.Send(1, 0x500, 0) },
		func(r *mpi.Rank) {
			for k := 0; k < 200; k++ {
				r.Irecv(0, 0x100+k, 0)
			}
			req := r.Irecv(0, 0x500, 0)
			r.Barrier()
			r.Wait(req)
			done = r.Now()
		},
	})
	return done, w
}

// iprobeWorld floods rank 0 with unexpected messages from three senders,
// probes for them (present, absent, wildcard source and tag) many times —
// the non-consuming search, which walks the whole software queue even
// when an ALPU is fitted — and then receives them, exact and wildcard,
// against a queue of receives posted before the flood.
func iprobeWorld(cfg nic.Config) (sim.Time, *mpi.World) {
	const ranks, msgs = 4, 24
	var done sim.Time
	progs := []mpi.Program{func(r *mpi.Rank) {
		var early []*mpi.Request
		for k := 0; k < 8; k++ {
			early = append(early, r.Irecv(mpi.AnySource, 900+k, 0))
			early = append(early, r.Irecv(1+k%3, 950+k, 0))
		}
		r.Barrier()
		r.Barrier() // the flood has been sent
		found := 0
		for round := 0; round < 4; round++ {
			for k := 0; k < msgs; k += 3 {
				for _, p := range [][2]int{
					{1 + k%3, 100 + k}, {1 + k%3, 5000 + k}, {mpi.AnySource, 100 + msgs - 1 - k}, {2, mpi.AnyTag},
				} {
					if ok, _ := r.Iprobe(p[0], p[1]); ok {
						found++
					}
				}
			}
		}
		var late []*mpi.Request
		for src := 1; src < ranks; src++ {
			for k := msgs - 1; k >= 0; k-- {
				if k%4 == 0 {
					late = append(late, r.Irecv(mpi.AnySource, 100+k, 0))
				} else {
					late = append(late, r.Irecv(src, 100+k, 0))
				}
			}
		}
		r.Waitall(late...)
		r.Waitall(early...)
		if found == 0 {
			panic("iprobe golden: no probe ever found a message")
		}
		done = r.Now()
	}}
	for s := 1; s < ranks; s++ {
		progs = append(progs, func(r *mpi.Rank) {
			r.Barrier()
			for k := 0; k < msgs; k++ {
				r.Send(0, 100+k, 0)
			}
			r.Barrier()
			for k := r.Rank() - 1; k < 8; k += 3 {
				r.Send(0, 900+k, 0)
				r.Send(0, 950+k, 0)
			}
		})
	}
	w := mpi.RunPrograms(mpi.Config{Ranks: ranks, NIC: cfg}, progs)
	return done, w
}

// purgeRaceWorld paces receive posts against a stream of headers so
// that one header's MATCH FAILURE is generated just before the insert
// episode that loads its receive (the §IV-C race): the firmware resolves
// it in software and purges the stale device copy.
func purgeRaceWorld() (sim.Time, *mpi.World) {
	const msgs = 40
	var done sim.Time
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: nic.Config{UseALPU: true, Cells: 128}}, []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			for k := 0; k < msgs; k++ {
				r.Compute(150 * sim.Nanosecond)
				r.Send(1, k, 0)
			}
		},
		func(r *mpi.Rank) {
			r.Barrier()
			var reqs []*mpi.Request
			for k := 0; k < msgs; k++ {
				r.Compute(700 * sim.Nanosecond)
				reqs = append(reqs, r.Irecv(0, k, 0))
			}
			r.Waitall(reqs...)
			done = r.Now()
		},
	})
	if w.NICs[1].Stats().ALPUPurges == 0 {
		panic("purge-race golden: the insert race never fired")
	}
	return done, w
}

// fabricFaultCfg is a 4-shard fabric on 16-cell devices (every shard
// overflows) with a recovery policy tight enough that strikes, resyncs
// and failover all happen inside a short run.
func fabricFaultCfg() nic.Config {
	return nic.Config{UseALPU: true, Cells: 16, MatchShards: 4,
		FaultStrikeLimit: 2, FaultResultTimeout: sim.Microsecond, FaultRetryBase: 4 * sim.Microsecond}
}

// wildcardRoundsWorld posts, round after round, ANY_SOURCE receives (one
// broadcast copy per fabric shard) and exact receives from every sender
// on rank 0, then lets the three senders match them, staggered. log, when
// set, receives the world's diagnostics.
func wildcardRoundsWorld(cfg nic.Config, log *slog.Logger) (sim.Time, *mpi.World) {
	const ranks, rounds, per = 4, 12, 6
	var done sim.Time
	progs := []mpi.Program{func(r *mpi.Rank) {
		for round := 0; round < rounds; round++ {
			var reqs []*mpi.Request
			for k := 0; k < per; k++ {
				tag := round*100 + k
				reqs = append(reqs, r.Irecv(mpi.AnySource, tag, 0))
				for src := 1; src < ranks; src++ {
					reqs = append(reqs, r.Irecv(src, tag+50, 0))
				}
			}
			r.Barrier()
			r.Waitall(reqs...)
		}
		done = r.Now()
	}}
	for s := 1; s < ranks; s++ {
		progs = append(progs, func(r *mpi.Rank) {
			for round := 0; round < rounds; round++ {
				r.Barrier()
				r.Compute(sim.Time(r.Rank()) * 500 * sim.Nanosecond)
				for k := 0; k < per; k++ {
					tag := round*100 + k
					if k%(ranks-1) == r.Rank()-1 {
						r.Send(0, tag, 0)
					}
					r.Send(0, tag+50, 0)
				}
			}
		})
	}
	w := mpi.RunPrograms(mpi.Config{Ranks: ranks, NIC: cfg, Log: log}, progs)
	return done, w
}

// rndvWorld sends rendezvous-size messages (past params.EagerLimit) to
// rank 0 from two senders. The first batch matches receives posted ahead,
// exact and ANY_SOURCE, so each header's CTS leaves from the posted match;
// the second batch arrives before its receives are posted and waits on
// the unexpected queue, so each CTS leaves from the later receive.
func rndvWorld(cfg nic.Config) (sim.Time, *mpi.World) {
	const ranks, msgs, size = 3, 12, 2 * params.EagerLimit
	var done sim.Time
	progs := []mpi.Program{func(r *mpi.Rank) {
		var reqs []*mpi.Request
		for k := 0; k < msgs; k++ {
			src := 1 + k%2
			if k%3 == 0 {
				src = mpi.AnySource
			}
			reqs = append(reqs, r.Irecv(src, k, size))
		}
		r.Barrier()
		r.Waitall(reqs...)
		r.Barrier()
		r.Compute(20 * sim.Microsecond) // the second batch is queued by now
		reqs = reqs[:0]
		for k := msgs - 1; k >= 0; k-- {
			src := 1 + k%2
			if k%4 == 0 {
				src = mpi.AnySource
			}
			reqs = append(reqs, r.Irecv(src, 100+k, size))
		}
		r.Waitall(reqs...)
		done = r.Now()
	}}
	for s := 1; s < ranks; s++ {
		progs = append(progs, func(r *mpi.Rank) {
			var reqs []*mpi.Request
			r.Barrier()
			for k := r.Rank() - 1; k < msgs; k += 2 {
				reqs = append(reqs, r.Isend(0, k, size))
			}
			r.Barrier()
			for k := r.Rank() - 1; k < msgs; k += 2 {
				reqs = append(reqs, r.Isend(0, 100+k, size))
			}
			r.Waitall(reqs...)
		})
	}
	w := mpi.RunPrograms(mpi.Config{Ranks: ranks, NIC: cfg}, progs)
	return done, w
}

// teardownLog is a slog handler that keeps, rendered, the records of the
// ALPU mirror teardowns (resync and failover) and drops every other.
type teardownLog struct{ records []string }

func (l *teardownLog) Enabled(context.Context, slog.Level) bool { return true }

func (l *teardownLog) Handle(_ context.Context, r slog.Record) error {
	if !strings.HasPrefix(r.Message, "alpu ") {
		return nil
	}
	var b strings.Builder
	b.WriteString(r.Message)
	r.Attrs(func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		return true
	})
	l.records = append(l.records, b.String())
	return nil
}

func (l *teardownLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *teardownLog) WithGroup(string) slog.Handler      { return l }
