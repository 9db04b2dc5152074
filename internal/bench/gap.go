package bench

import (
	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/sweep"
)

// GapPoint is one measurement of the message-rate benchmark.
type GapPoint struct {
	Depth     int     // posted-queue entries ahead of every match
	NsPerMsg  float64 // receiver-side inter-message gap
	MsgsPerUs float64
}

// GapConfig parameterises the gap (message rate) benchmark. The paper's
// §I frames the ALPU's purpose in LogP terms: offload bought low
// overhead at the price of gap, because "time spent traversing queues
// leads to an increase in gap" — the NIC cannot service the next message
// until the current one's traversal finishes. A burst of back-to-back
// messages that each match at a fixed depth measures exactly that.
type GapConfig struct {
	NIC     nic.Config
	Depths  []int
	Burst   int // messages per measurement (default 32)
	MsgSize int
	// Plan: as in PrepostedConfig.
	Plan
}

// RunGap measures the achieved receiver-side message rate as a function
// of the match depth. Depths run on cfg.Jobs parallel worlds.
func RunGap(cfg GapConfig) []GapPoint {
	burst := cfg.Burst
	if burst <= 0 {
		burst = 32
	}
	return sweep.Map(cfg.Jobs, len(cfg.Depths), func(i int) GapPoint {
		gap := gapPoint(cfg, cfg.Depths[i], burst)
		return GapPoint{
			Depth:     cfg.Depths[i],
			NsPerMsg:  gap.Nanoseconds(),
			MsgsPerUs: 1000 / gap.Nanoseconds(),
		}
	})
}

// gapPoint measures one depth: the receiver pre-posts d never-matching
// receives followed by the burst's receives in order, so every arriving
// message traverses exactly d entries before matching (consuming match k
// leaves match k+1 at the same depth).
func gapPoint(cfg GapConfig, d, burst int) sim.Time {
	var firstDone, lastDone sim.Time

	progs := []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			reqs := make([]*mpi.Request, burst)
			for k := 0; k < burst; k++ {
				reqs[k] = r.Isend(1, matchBase+k, cfg.MsgSize)
			}
			r.Waitall(reqs...)
		},
		func(r *mpi.Rank) {
			for i := 0; i < d; i++ {
				r.Irecv(0, noMatchTag+i, 0)
			}
			reqs := make([]*mpi.Request, burst)
			for k := 0; k < burst; k++ {
				reqs[k] = r.Irecv(0, matchBase+k, cfg.MsgSize)
			}
			r.Barrier()
			r.Waitall(reqs...)
			firstDone = reqs[0].DoneAt()
			lastDone = reqs[burst-1].DoneAt()
		},
	}
	runWorld(cfg.WorldConfig(2, cfg.NIC), progs)
	return (lastDone - firstDone) / sim.Time(burst-1)
}

// ElanNICConfig returns the §VI-B comparison NIC: a Quadrics-Elan4-class
// processor (~150 ns per traversed entry) with no ALPU.
func ElanNICConfig() nic.Config {
	cpu := params.ElanNIC()
	return nic.Config{CPUProfile: &cpu}
}
