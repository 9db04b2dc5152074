// Fault injection: a deterministic, seed-driven fault model layered under
// the reliable default. The paper's simulation environment (§V-B) assumes
// a perfect in-order network; the FaultModel lets the same worlds run over
// a lossy one (drop, duplicate, reorder/delay-jitter, payload corruption)
// so the NIC reliability protocol (internal/nic) can be exercised. All
// randomness comes from seeded sim.Rand streams owned by the Network, so
// two runs with the same seed inject byte-identical fault sequences.
package network

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"alpusim/internal/params"
	"alpusim/internal/sim"
)

// FaultModel describes per-packet fault probabilities on every link.
// The zero value injects nothing; a nil model on the Network is the
// reliable default and skips the fault path entirely.
type FaultModel struct {
	Seed int64

	// DropProb silently loses the packet on the wire.
	DropProb float64
	// DupProb delivers the packet twice (the second copy slightly later).
	DupProb float64
	// ReorderProb adds a delay jitter in (0, MaxJitter] to the delivery,
	// letting later packets overtake this one.
	ReorderProb float64
	// CorruptProb flips a bit in the checksummed portion of the packet
	// (envelope, size, or reliability sequence number).
	CorruptProb float64

	// MaxJitter bounds the reorder delay; 0 selects 4x the wire latency.
	MaxJitter sim.Time

	// LinkFlapFrac is the fraction of time each link spends down: time is
	// cut into fixed windows and each (seed, source, window) is down with
	// this probability — a pure function, so flaps are identical at any
	// partition count. Packets sent into a down window are dropped; the
	// go-back-N reliability layer recovers them.
	LinkFlapFrac float64

	// Device-fault classes. The Network does not interpret these; the
	// world builder (internal/mpi) plumbs them into per-device
	// alpu.FaultModel instances and the NIC firmware, deriving per-unit
	// seeds from Seed.
	ALPUBitFlipProb    float64  // transient ALPU cell bit-flips
	ALPUResultDropProb float64  // ALPU result-FIFO entries silently lost
	ALPUStuckProb      float64  // stuck ALPU compaction cycles
	ALPUDeathAt        sim.Time // hard ALPU failure at this instant (0 = never)
	FwCrashProb        float64  // NIC firmware crash per handled work item
}

// WireActive reports whether any wire-level class is enabled — the classes
// that require the reliability protocol and the Network's inject path.
func (f *FaultModel) WireActive() bool {
	return f != nil && (f.DropProb > 0 || f.DupProb > 0 || f.ReorderProb > 0 ||
		f.CorruptProb > 0 || f.LinkFlapFrac > 0)
}

// DeviceActive reports whether any device-level class (ALPU faults,
// firmware crashes) is enabled.
func (f *FaultModel) DeviceActive() bool {
	return f != nil && (f.ALPUBitFlipProb > 0 || f.ALPUResultDropProb > 0 ||
		f.ALPUStuckProb > 0 || f.ALPUDeathAt > 0 || f.FwCrashProb > 0)
}

// Active reports whether the model can inject any fault at all.
func (f *FaultModel) Active() bool {
	return f.WireActive() || f.DeviceActive()
}

// String renders the model compactly for experiment banners.
func (f *FaultModel) String() string {
	if f == nil {
		return "none"
	}
	s := fmt.Sprintf("drop=%g dup=%g reorder=%g corrupt=%g",
		f.DropProb, f.DupProb, f.ReorderProb, f.CorruptProb)
	if f.LinkFlapFrac > 0 {
		s += fmt.Sprintf(" linkflap=%g", f.LinkFlapFrac)
	}
	if f.ALPUBitFlipProb > 0 {
		s += fmt.Sprintf(" alpubitflip=%g", f.ALPUBitFlipProb)
	}
	if f.ALPUResultDropProb > 0 {
		s += fmt.Sprintf(" alpuresultdrop=%g", f.ALPUResultDropProb)
	}
	if f.ALPUStuckProb > 0 {
		s += fmt.Sprintf(" alpustuck=%g", f.ALPUStuckProb)
	}
	if f.ALPUDeathAt > 0 {
		s += fmt.Sprintf(" alpudeath@%v", f.ALPUDeathAt)
	}
	if f.FwCrashProb > 0 {
		s += fmt.Sprintf(" fwcrash=%g", f.FwCrashProb)
	}
	return s + fmt.Sprintf(" seed=%d", f.Seed)
}

// flapWindow is the granularity of link up/down flaps: each window is
// independently up or down per (seed, source). It comfortably exceeds the
// reliability layer's initial RTO, so a down window forces real
// retransmission backoff rather than sub-RTO blips.
const flapWindow = 5 * sim.Microsecond

// linkDown reports whether src's link is down at instant t — a pure
// function of (Seed, src, t), evaluated without touching any PRNG stream.
func (f *FaultModel) linkDown(src int, t sim.Time) bool {
	if f.LinkFlapFrac <= 0 {
		return false
	}
	w := uint64(t / flapWindow)
	z := sim.Mix64(uint64(f.Seed)*0x9E3779B97F4A7C15 + (uint64(src)+1)*0xD1B54A32D192ED03 + w*0xBF58476D1CE4E5B9)
	return float64(z>>11)/(1<<53) < f.LinkFlapFrac
}

// ParseError is an actionable -faults parse failure: it names the bad
// element, its 1-based position in the comma-separated spec, and what
// would have been accepted there.
type ParseError struct {
	Spec  string // the full spec as given
	Pos   int    // 1-based element position within the spec
	Token string // the offending element
	Msg   string // what is wrong and what was expected
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("faults: element %d %q: %s (spec %q)", e.Pos, e.Token, e.Msg, e.Spec)
}

// faultClasses names every class=value key ParseFaults accepts, for error
// messages.
const faultClasses = "drop, dup, reorder, corrupt, linkflap, alpubitflip, alpuresultdrop, alpustuck, fwcrash (value in [0,1]), or alpudeath@<duration>"

// ParseFaults parses a -faults flag value: either a single probability
// applied to all four wire fault classes ("0.02"), or a comma-separated
// list of elements — class=prob pairs ("drop=0.01,corrupt=0.005"), the
// device classes ("alpubitflip=0.001,fwcrash=0.0001"), "linkflap" (bare,
// default 0.1 down-fraction) or "linkflap=frac", and "alpudeath@t" with a
// Go duration ("alpudeath@500us"). A class may be named once: a second
// element of the same class (bare "linkflap" and "linkflap=frac" are one
// class) is an error. An empty spec returns nil (no faults).
func ParseFaults(spec string, seed int64) (*FaultModel, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	fm := &FaultModel{Seed: seed}
	if !strings.ContainsAny(spec, "=@") && !strings.Contains(spec, "linkflap") {
		p, err := strconv.ParseFloat(spec, 64)
		if err != nil {
			return nil, &ParseError{Spec: spec, Pos: 1, Token: spec,
				Msg: "not a probability; want a float in [0,1] or a class list: " + faultClasses}
		}
		if !(p >= 0 && p <= 1) { // rejects NaN too
			return nil, &ParseError{Spec: spec, Pos: 1, Token: spec,
				Msg: fmt.Sprintf("probability %g out of [0,1]", p)}
		}
		fm.DropProb, fm.DupProb, fm.ReorderProb, fm.CorruptProb = p, p, p, p
		return fm, nil
	}
	seen := make(map[string]bool)
	for i, part := range strings.Split(spec, ",") {
		tok := strings.TrimSpace(part)
		fail := func(msg string) error {
			return &ParseError{Spec: spec, Pos: i + 1, Token: tok, Msg: msg}
		}
		if tok == "" {
			return nil, fail("empty element; want " + faultClasses)
		}
		class, _, _ := strings.Cut(tok, "=")
		if strings.HasPrefix(tok, "alpudeath@") {
			class = "alpudeath"
		}
		class = strings.ToLower(class)
		if seen[class] {
			return nil, fail(fmt.Sprintf("class %q given twice", class))
		}
		seen[class] = true
		if tok == "linkflap" {
			fm.LinkFlapFrac = 0.1
			continue
		}
		if rest, ok := strings.CutPrefix(tok, "alpudeath@"); ok {
			d, err := time.ParseDuration(rest)
			if err != nil || d <= 0 {
				return nil, fail(fmt.Sprintf("bad death time %q; want a positive Go duration like 500us", rest))
			}
			if d.Nanoseconds() > int64(math.MaxInt64/sim.Nanosecond) {
				return nil, fail(fmt.Sprintf("death time %q overflows the simulated clock (max %v)",
					rest, time.Duration(math.MaxInt64/sim.Nanosecond)))
			}
			fm.ALPUDeathAt = sim.Time(d.Nanoseconds()) * sim.Nanosecond
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fail("want class=value; classes: " + faultClasses)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return nil, fail(fmt.Sprintf("bad probability %q; want a float in [0,1]", val))
		}
		switch strings.ToLower(key) {
		case "drop":
			fm.DropProb = p
		case "dup":
			fm.DupProb = p
		case "reorder":
			fm.ReorderProb = p
		case "corrupt":
			fm.CorruptProb = p
		case "linkflap":
			fm.LinkFlapFrac = p
		case "alpubitflip":
			fm.ALPUBitFlipProb = p
		case "alpuresultdrop":
			fm.ALPUResultDropProb = p
		case "alpustuck":
			fm.ALPUStuckProb = p
		case "fwcrash":
			fm.FwCrashProb = p
		default:
			return nil, fail(fmt.Sprintf("unknown class %q; classes: %s", key, faultClasses))
		}
	}
	return fm, nil
}

// FaultStats counts injected faults, for the chaos experiment reports.
type FaultStats struct {
	Dropped     uint64
	Duplicated  uint64
	Reordered   uint64
	Corrupted   uint64
	FlapDropped uint64 // packets sent into a down link-flap window
}

// Total sums the injected-fault counts.
func (s FaultStats) Total() uint64 {
	return s.Dropped + s.Duplicated + s.Reordered + s.Corrupted + s.FlapDropped
}

func (s FaultStats) String() string {
	out := fmt.Sprintf("dropped=%d duplicated=%d reordered=%d corrupted=%d",
		s.Dropped, s.Duplicated, s.Reordered, s.Corrupted)
	if s.FlapDropped > 0 {
		out += fmt.Sprintf(" flapdropped=%d", s.FlapDropped)
	}
	return out
}

// maxJitter resolves the configured or default reorder jitter bound.
func (f *FaultModel) maxJitter(wire sim.Time) sim.Time {
	if f.MaxJitter > 0 {
		return f.MaxJitter
	}
	if wire <= 0 {
		wire = params.WireLatency
	}
	return 4 * wire
}

// corrupt flips one bit in a checksummed field of p. The destination is
// left intact (routing is a physical port, not packet content), so the
// corruption is always detectable by the receiver's checksum.
func corrupt(r *sim.Rand, p Packet) Packet {
	bit := uint32(1) << uint(r.Intn(16))
	switch r.Intn(4) {
	case 0:
		p.Hdr.Tag ^= int32(bit)
	case 1:
		p.Hdr.Source ^= int32(bit)
	case 2:
		p.Size ^= int(bit)
	default:
		p.RelSeq ^= uint64(bit)
	}
	return p
}

// SetFaults installs (or, with nil, removes) the fault model. Call before
// traffic flows; changing the model mid-run would break seed determinism.
// A partitioned network derives one independent stream per source
// endpoint from the seed, so concurrent partitions never share a PRNG;
// the per-source sequences are a pure function of (seed, source), not of
// the partition layout. A single-engine network gives every source the
// one network-wide stream, drawn in transmission order.
func (n *Network) SetFaults(fm *FaultModel) {
	n.faults = fm
	var base uint64
	var shared *sim.Rand
	if fm != nil {
		// Mixing the seed keeps nearby seeds decorrelated.
		base = uint64(fm.Seed)*0x9E3779B97F4A7C15 + 0x1234567890ABCDEF
		shared = sim.NewRand(base)
	}
	for i := range n.links {
		n.links[i].rng = shared
		if fm != nil && n.ps != nil {
			n.links[i].rng = sim.NewRand(base + (uint64(i)+1)*0xD1B54A32D192ED03)
		}
	}
}

// Faults returns the installed fault model (nil = reliable).
func (n *Network) Faults() *FaultModel { return n.faults }

// FaultStats reports the faults injected so far, the per-source counters
// summed in source order.
func (n *Network) FaultStats() FaultStats {
	var total FaultStats
	for i := range n.links {
		s := n.links[i].stats
		total.Dropped += s.Dropped
		total.Duplicated += s.Duplicated
		total.Reordered += s.Reordered
		total.Corrupted += s.Corrupted
		total.FlapDropped += s.FlapDropped
	}
	return total
}

// inject applies the fault model to one transmission and schedules the
// surviving deliveries through deliverAt. at is the fault-free absolute
// delivery time; faults only ever add delay (or drop), so the
// conservative lookahead bound survives injection.
func (n *Network) inject(p Packet, src, dst *Endpoint, at sim.Time) {
	f := n.faults
	ln := &n.links[src.ID]
	// Link flap is a pure function of (seed, source, window) — checked
	// before any stream draw, so enabling it does not perturb the other
	// classes' random sequences. The instant checked is the fault-free
	// delivery time, independent of which partition evaluates it.
	if f.linkDown(src.ID, at) {
		ln.stats.FlapDropped++
		return
	}
	// Draw in a fixed order so the random stream is a pure function of the
	// transmission sequence, whatever the probabilities.
	r := ln.rng
	drop := r.Float64() < f.DropProb
	corr := r.Float64() < f.CorruptProb
	reorder := r.Float64() < f.ReorderProb
	dup := r.Float64() < f.DupProb
	var jitter, dupJitter sim.Time
	if reorder {
		jitter = sim.Time(1 + r.Intn(int(f.maxJitter(params.WireLatency))))
	}
	if dup {
		dupJitter = sim.Time(1 + r.Intn(int(f.maxJitter(params.WireLatency))))
	}

	if drop {
		ln.stats.Dropped++
		return
	}
	if corr {
		ln.stats.Corrupted++
		p = corrupt(r, p)
	}
	if reorder {
		ln.stats.Reordered++
	}
	n.deliverAt(src, dst, at+jitter, p)
	if dup {
		ln.stats.Duplicated++
		n.deliverAt(src, dst, at+jitter+dupJitter, p)
	}
}
