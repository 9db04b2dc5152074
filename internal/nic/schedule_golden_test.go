package nic_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alpusim/internal/alpu"
	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
)

// scheduleCell is one ALPU world whose event schedule the golden pins;
// run builds and drains it on parts partitions.
type scheduleCell struct {
	name string
	run  func(parts int) (sim.Time, *mpi.World)
}

// TestEventScheduleGolden pins the event schedule of worlds that build
// ALPU devices, at Partitions 0, 1 and 2: per engine the events executed
// (a Sleep wake taken inline counts as the event it stands for), the
// latest modelled event and the final clock, a digest of the matching
// outcome (the cell's measured time, every NIC's counters and match-depth
// histograms) and every device's Stats. Any change to when a device
// steps, schedules or drops a wake moves a number here, while goroutine
// switches and handoffs are left out: how events are run may change,
// which events run may not. go test ./internal/nic -update rewrites the
// golden.
func TestEventScheduleGolden(t *testing.T) {
	faulty := func() nic.Config {
		acfg := alpu.DefaultConfig(16)
		acfg.ResultFIFODepth = 1
		cfg := fabricFaultCfg()
		cfg.MatchShards = 0
		cfg.ALPUConfig = &acfg
		return cfg
	}
	faults := &network.FaultModel{Seed: 11, ALPUBitFlipProb: 0.05, ALPUStuckProb: 0.05,
		ALPUResultDropProb: 0.02, ALPUDeathAt: 40 * sim.Microsecond}
	perCycle := alpu.DefaultConfig(128)
	perCycle.PerCycle = true
	cells := []scheduleCell{
		{"fig5/alpu-128/q200", func(parts int) (sim.Time, *mpi.World) {
			return prepostedAt(bench.NICConfig(bench.ALPU128), 200, parts)
		}},
		{"fig5/alpu-256/q200", func(parts int) (sim.Time, *mpi.World) {
			return prepostedAt(bench.NICConfig(bench.ALPU256), 200, parts)
		}},
		{"fig6/alpu-256/u200", func(parts int) (sim.Time, *mpi.World) {
			var lat sim.Time
			w := observe(func() {
				lat = bench.RunUnexpected(bench.UnexpectedConfig{NIC: bench.NICConfig(bench.ALPU256),
					QueueLens: []int{200}, Plan: bench.Plan{World: mpi.Config{Partitions: parts}}})[0].Latency
			})
			return lat, w
		}},
		{"percycle/alpu-128/q100", func(parts int) (sim.Time, *mpi.World) {
			return prepostedAt(nic.Config{UseALPU: true, Cells: 128, ALPUConfig: &perCycle}, 100, parts)
		}},
		{"devfault/alpu-16", func(parts int) (sim.Time, *mpi.World) {
			at, w := wildcardRoundsWorld(mpi.Config{NIC: faulty(), Faults: faults, Partitions: parts})
			var s alpu.Stats
			for _, n := range w.NICs {
				for _, u := range devices(n) {
					ds := u.dev.Stats()
					s.BitFlips += ds.BitFlips
					s.ParityFaults += ds.ParityFaults
					s.StuckCycles += ds.StuckCycles
					s.DroppedResults += ds.DroppedResults
					s.DeadDiscards += ds.DeadDiscards
					s.ResultStalls += ds.ResultStalls
				}
			}
			if s.BitFlips == 0 || s.ParityFaults == 0 || s.StuckCycles == 0 || s.DroppedResults == 0 ||
				s.DeadDiscards == 0 || s.ResultStalls == 0 {
				panic(fmt.Sprintf("devfault golden: a fault class never fired: %+v", s))
			}
			return at, w
		}},
		{"tenancy/fabric-4", func(parts int) (sim.Time, *mpi.World) {
			return tenancyWorld(nic.Config{UseALPU: true, Cells: 32, MatchShards: 4}, parts)
		}},
		{"purge-race/alpu-128", purgeRaceWorld},
	}

	var out bytes.Buffer
	for _, c := range cells {
		for _, parts := range []int{0, 1, 2} {
			at, w := c.run(parts)
			fmt.Fprintf(&out, "%s par=%d digest=%016x", c.name, parts, outcomeDigest(at, w))
			for i, e := range w.Engines {
				fmt.Fprintf(&out, " | e%d executed=%d last=%d now=%d", i, e.Executed(), int64(e.LastModel()), int64(e.Now()))
			}
			out.WriteByte('\n')
			for i, n := range w.NICs {
				for _, u := range devices(n) {
					fmt.Fprintf(&out, "  nic%d %s %v\n", i, u.variant, u.dev.Stats())
				}
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "schedule.golden"), out.Bytes())
}

// compareGolden checks got against the golden file at path, line by
// line, or rewrites the file under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/nic -update to create it)", err)
	}
	if string(got) == string(want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// unit is one of a NIC's ALPU devices and the variant the NIC built it as.
type unit struct {
	variant alpu.Variant
	dev     *alpu.Device
}

// devices lists a NIC's ALPU units: the posted unit or the fabric
// shards, then the unexpected unit.
func devices(n *nic.NIC) []unit {
	var us []unit
	if d := n.PostedALPU(); d != nil {
		us = append(us, unit{alpu.PostedReceives, d})
	}
	for i := 0; i < n.MatchShardCount(); i++ {
		us = append(us, unit{alpu.PostedReceives, n.ShardALPU(i)})
	}
	if d := n.UnexpALPU(); d != nil {
		us = append(us, unit{alpu.UnexpectedMessages, d})
	}
	return us
}

// outcomeDigest folds a cell's measured time and, per NIC, its counters
// and match-depth histograms into one FNV-1a word.
func outcomeDigest(at sim.Time, w *mpi.World) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", int64(at))
	for _, n := range w.NICs {
		fmt.Fprintf(h, "|%+v %s %s", n.Stats(), histLine(n.PostedDepths()), histLine(n.UnexpDepths()))
	}
	return h.Sum64()
}

// prepostedAt is one full-traversal Fig. 5 cell at queue length q on
// parts partitions.
func prepostedAt(cfg nic.Config, q, parts int) (sim.Time, *mpi.World) {
	var lat sim.Time
	w := observe(func() {
		lat = bench.RunPreposted(bench.PrepostedConfig{NIC: cfg, QueueLens: []int{q}, Fracs: []float64{1.0},
			Plan: bench.Plan{World: mpi.Config{Partitions: parts}}})[0].Latency
	})
	return lat, w
}

// tenancyWorld is a small heavy-tenancy world: rank 0 pre-posts one
// receive per message over four duplicated communicators, about an eighth
// of them ANY_SOURCE, and five senders then fire their Zipf-skewed share
// of the messages at it.
func tenancyWorld(nc nic.Config, parts int) (sim.Time, *mpi.World) {
	const ranks, comms, msgs = 6, 4, 240
	rng := rand.New(rand.NewSource(3))
	zc := rand.NewZipf(rng, 1.25, 1, comms-1)
	zs := rand.NewZipf(rng, 1.25, 1, ranks-2)
	comm, src := make([]int, msgs), make([]int, msgs)
	wild := make([]bool, msgs)
	for i := range comm {
		comm[i], src[i], wild[i] = int(zc.Uint64()), 1+int(zs.Uint64()), rng.Intn(8) == 0
	}
	var done sim.Time
	w := mpi.Run(mpi.Config{Ranks: ranks, NIC: nc, Partitions: parts}, func(r *mpi.Rank) {
		world := r.Comm()
		cs := make([]*mpi.Comm, comms)
		for c := range cs {
			cs[c] = world.Dup()
		}
		var reqs []*mpi.Request
		if r.Rank() == 0 {
			for i := range comm {
				s := src[i]
				if wild[i] {
					s = mpi.AnySource
				}
				reqs = append(reqs, cs[comm[i]].Irecv(s, i, 0))
			}
			world.Barrier()
			r.Waitall(reqs...)
			done = r.Now()
			return
		}
		world.Barrier()
		for i := range comm {
			if src[i] == r.Rank() {
				reqs = append(reqs, cs[comm[i]].Isend(0, i, 0))
			}
		}
		r.Waitall(reqs...)
	})
	return done, w
}
