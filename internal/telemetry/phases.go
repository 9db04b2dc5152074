package telemetry

import "alpusim/internal/sim"

// The latency phase breakdown tags a message at injection and stamps it
// at each pipeline boundary as it flows sender-host -> wire -> rx FIFO ->
// firmware -> match engine -> completion -> host. Phases are the deltas
// between consecutive stamps, so by construction they telescope: the
// phase columns sum exactly to the end-to-end latency.
//
// Stamps (in pipeline order):
//
//	Inject   sender host posts the send (optional; workload-level)
//	WireTx   sender NIC puts the first bit on the wire
//	Arrive   packet reaches the receiver endpoint
//	Deliver  packet admitted to the rx FIFO (post-reliability)
//	FwPop    receiver firmware pops the packet
//	Match    match resolved (posted hit or unexpected claim)
//	Complete payload landed, completion raised to the host
//	HostDone host observes the completion (request DoneAt)
//
// Derived phases:
//
//	inject   = WireTx - Inject     send-side host+NIC processing
//	wire     = Arrive - WireTx     serialization + wire latency
//	recovery = Deliver - Arrive    reliability delay (retx, reorder, RNR)
//	rxfifo   = FwPop - Deliver     waiting in the rx FIFO for firmware
//	search   = Match - FwPop       header processing + queue search
//	deliver  = Complete - Match    payload DMA + completion write
//	host     = HostDone - Complete host bus crossing
//
// Stamping is first-wins per (message, stamp): a retransmitted packet
// re-arrives but only its first Arrive counts, and the extra delay shows
// up in the recovery phase — exactly where it belongs.

// Stamp identifies a pipeline boundary.
type Stamp int

// Pipeline boundary stamps, in order.
const (
	StampInject Stamp = iota
	StampWireTx
	StampArrive
	StampDeliver
	StampFwPop
	StampMatch
	StampComplete
	StampHostDone
	numStamps
)

// Phase identifies a delta between consecutive stamps.
type Phase int

// Phases, in pipeline order. Phase p spans stamp p+1 - stamp p.
const (
	PhaseInject Phase = iota
	PhaseWire
	PhaseRecovery
	PhaseRxFIFO
	PhaseSearch
	PhaseDeliver
	PhaseHost
	NumPhases
)

var phaseNames = [NumPhases]string{
	"inject", "wire", "recovery", "rxfifo", "search", "deliver", "host",
}

// String returns the phase's short report name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "?"
	}
	return phaseNames[p]
}

// Phases is the lifecycle recorder under the name its phase-breakdown
// callers know: the breakdown is a view over Causal (Causal.Breakdown,
// Causal.Totals), so both names denote one recorder.
type Phases = Causal

// NewPhases returns an empty lifecycle recorder.
func NewPhases() *Phases { return NewCausal() }

// Breakdown is one message's per-phase durations. Durs telescopes:
// sum(Durs) == Total == HostDone - start, where start is Inject when
// stamped and WireTx otherwise (pre-posted receives have no workload
// inject stamp).
type Breakdown struct {
	Durs  [NumPhases]sim.Time
	Total sim.Time
}

// needMask is the stamps a completed message must have: everything from
// WireTx through HostDone. Inject is optional.
const needMask = (1<<uint(numStamps) - 1) &^ (1 << uint(StampInject))

// Totals aggregates breakdowns across messages (and, via Merge, across
// worlds).
type Totals struct {
	Messages uint64
	Durs     [NumPhases]sim.Time
	Total    sim.Time
}

// Merge folds other into t.
func (t *Totals) Merge(other Totals) {
	t.Messages += other.Messages
	for i := range other.Durs {
		t.Durs[i] += other.Durs[i]
	}
	t.Total += other.Total
}

// MeanNs returns the mean duration of one phase in nanoseconds.
func (t Totals) MeanNs(p Phase) float64 {
	if t.Messages == 0 {
		return 0
	}
	return float64(t.Durs[p]) / float64(t.Messages) / float64(sim.Nanosecond)
}

// MeanTotalNs returns the mean end-to-end latency in nanoseconds.
func (t Totals) MeanTotalNs() float64 {
	if t.Messages == 0 {
		return 0
	}
	return float64(t.Total) / float64(t.Messages) / float64(sim.Nanosecond)
}
