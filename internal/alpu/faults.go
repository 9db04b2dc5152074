package alpu

import (
	"fmt"

	"alpusim/internal/sim"
)

// FaultModel describes seeded, deterministic device-level fault injection
// for an ALPU instance. Probabilities are per-opportunity: BitFlipProb per
// cell scrub/inspection, ResultDropProb per result-FIFO push, StuckProb per
// compaction step. DeathAt, when non-zero, hard-fails the whole device at
// that simulated time: every FIFO interaction after the instant is silently
// discarded, modelling a unit that stopped responding on the bus.
//
// All randomness comes from a private sim.Rand stream derived from Seed,
// so a fixed seed reproduces the exact fault schedule regardless of host
// parallelism. One stream per device keeps fault draws independent of
// everything else in the world — a precondition for byte-identical output
// at any partition count.
type FaultModel struct {
	Seed           uint64
	BitFlipProb    float64  // transient cell bit-flip per scrub opportunity
	ResultDropProb float64  // result-FIFO entry silently lost per push
	StuckProb      float64  // compaction step stalls for 1..8 dead cycles
	DeathAt        sim.Time // 0 = never; device goes dark at this instant
}

// Active reports whether any fault class is enabled.
func (f *FaultModel) Active() bool {
	if f == nil {
		return false
	}
	return f.BitFlipProb > 0 || f.ResultDropProb > 0 || f.StuckProb > 0 || f.DeathAt > 0
}

// String renders the model for logs and flag echo.
func (f *FaultModel) String() string {
	if !f.Active() {
		return "none"
	}
	return fmt.Sprintf("bitflip=%g resultdrop=%g stuck=%g death@%v seed=%d",
		f.BitFlipProb, f.ResultDropProb, f.StuckProb, f.DeathAt, f.Seed)
}
