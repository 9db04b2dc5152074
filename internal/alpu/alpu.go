// Package alpu implements the paper's contribution: the Associative List
// Processing Unit (§III), a TCAM-like matching array with the list
// semantics MPI needs — strict first-posted priority, delete-on-match with
// upward shift, and a bulk-insert mode — plus the command/response
// protocol of Tables I and II and the controlling state machine of Fig. 3.
//
// Two models are provided:
//
//   - Reference: a purely functional model of the architecture's visible
//     behaviour, used as the oracle in property tests;
//   - Device: a cycle-level model with the cell/block structure, the
//     pipeline timing measured on the FPGA prototype (§V-D), the
//     decoupling FIFOs of Fig. 1, and block-granular hole compaction
//     (§III-B), integrated into the discrete event simulation.
package alpu

import (
	"fmt"

	"alpusim/internal/match"
)

// Variant selects which of the two cell types (§III-A) a unit is built
// from.
type Variant int

const (
	// PostedReceives cells store a mask per entry (receives may hold
	// wildcards); probes are exact incoming headers. Fig. 2(a).
	PostedReceives Variant = iota
	// UnexpectedMessages cells store exact headers; the mask arrives with
	// the probe (the receive being posted). Fig. 2(b).
	UnexpectedMessages
)

func (v Variant) String() string {
	if v == PostedReceives {
		return "posted-receives"
	}
	return "unexpected-messages"
}

// Geometry describes an ALPU build point (§VI-A explored 128/256 cells
// with block sizes 8/16/32).
type Geometry struct {
	Cells     int
	BlockSize int
}

// Validate reports a configuration error, mirroring the prototype's
// constraint that the block size is a power of two (§III-B) dividing the
// cell count.
func (g Geometry) Validate() error {
	if g.Cells <= 0 || g.BlockSize <= 0 {
		return fmt.Errorf("alpu: non-positive geometry %+v", g)
	}
	if g.BlockSize&(g.BlockSize-1) != 0 {
		return fmt.Errorf("alpu: block size %d not a power of 2", g.BlockSize)
	}
	if g.Cells%g.BlockSize != 0 {
		return fmt.Errorf("alpu: %d cells not divisible by block size %d", g.Cells, g.BlockSize)
	}
	return nil
}

// Blocks returns the number of cell blocks.
func (g Geometry) Blocks() int { return g.Cells / g.BlockSize }

// PipelineCycles returns the match pipeline latency of this geometry per
// the prototype measurements (§V-D, Tables IV/V): stage 4 (inter-block
// priority muxing) takes a second cycle when the inter-block tree is
// large; the published build points show 7 cycles for more than 8 blocks
// and 6 otherwise.
func (g Geometry) PipelineCycles() int {
	if g.Blocks() > 8 {
		return 7
	}
	return 6
}

// Opcode identifies an ALPU command (Table I).
type Opcode int

const (
	// OpStartInsert instructs the ALPU to enter insert mode.
	OpStartInsert Opcode = iota
	// OpInsert inserts a new entry (valid only in insert mode).
	OpInsert
	// OpStopInsert instructs the ALPU to exit insert mode.
	OpStopInsert
	// OpReset clears all entries.
	OpReset
	// OpInvalidate clears the entry carrying the given tag, if present,
	// without shifting its neighbours (the cell is scrubbed in place and
	// the hole compacts lazily like a quarantined cell). The fabric uses
	// it to retire the extra copies of a wildcard receive broadcast to
	// every shard once one shard has matched it. No response is emitted;
	// an absent tag is a no-op, since the copy may already have been
	// consumed by a match racing ahead of the invalidate in the FIFO.
	// Unlike RESET, it is honoured in insert mode as well, so it is never
	// discarded: once pushed, the cell is guaranteed cleared before any
	// subsequently pushed probe is matched.
	OpInvalidate
)

func (o Opcode) String() string {
	switch o {
	case OpStartInsert:
		return "START INSERT"
	case OpInsert:
		return "INSERT"
	case OpStopInsert:
		return "STOP INSERT"
	case OpReset:
		return "RESET"
	case OpInvalidate:
		return "INVALIDATE"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// Command is one entry of the command FIFO (Table I). Only INSERT carries
// operands: the match bits, the mask bits (posted-receive variant only),
// and the software-defined tag (§III-A: typically a pointer into the
// processor's copy of the list).
type Command struct {
	Op   Opcode
	Bits match.Bits
	Mask match.Bits
	Tag  uint32
}

// RespKind identifies an ALPU response (Table II).
type RespKind int

const (
	// RespStartAck acknowledges insert-mode entry and reports free slots.
	RespStartAck RespKind = iota
	// RespMatchSuccess reports a match with the stored entry's tag.
	RespMatchSuccess
	// RespMatchFailure reports that a probe matched nothing. Never emitted
	// between a START ACKNOWLEDGE and a STOP INSERT (§IV-A).
	RespMatchFailure
	// RespFault reports that the scrubber quarantined a parity-bad cell.
	// Tag carries the tag of the lost entry so the firmware can repair the
	// device state from its host-side shadow copy of the list.
	RespFault
)

func (k RespKind) String() string {
	switch k {
	case RespStartAck:
		return "START ACKNOWLEDGE"
	case RespMatchSuccess:
		return "MATCH SUCCESS"
	case RespMatchFailure:
		return "MATCH FAILURE"
	case RespFault:
		return "FAULT"
	default:
		return fmt.Sprintf("RespKind(%d)", int(k))
	}
}

// Response is one entry of the result FIFO (Table II).
type Response struct {
	Kind RespKind
	Tag  uint32 // MATCH SUCCESS: tag from the matched entry
	Free int    // START ACKNOWLEDGE: number of free entries
	// Probe echoes the probe a match response answers. Real hardware
	// relies on FIFO ordering for this correlation; the model carries it
	// explicitly so the firmware and the tests can assert against it.
	Probe Probe
}

// Probe is one lookup: an incoming header (posted-receive variant, mask
// ignored and treated as full) or a receive being posted (unexpected
// variant, mask used).
type Probe struct {
	Bits match.Bits
	Mask match.Bits
	// Meta is a model-level correlation key, not part of the hardware:
	// match responses echo it. Producers pass non-zero keys (sequences
	// and request ids start at 1); START ACK and FAULT responses, which
	// answer no probe, carry 0.
	Meta uint64
}

// probeMask returns the effective compare mask for a probe under variant
// v. The posted-receive cell (Fig. 2(a)) has no probe-side mask at all —
// every stored mask bit participates, which is what lets wider-than-MPI
// fields (Portals match bits, the footnote-1 process id) ride in the same
// cells.
func probeMask(v Variant, p Probe) match.Bits {
	if v == PostedReceives {
		return ^match.Bits(0)
	}
	return p.Mask
}

// entryMask returns the effective stored-entry mask under variant v.
func entryMask(v Variant, stored match.Bits) match.Bits {
	if v == PostedReceives {
		return stored
	}
	return match.FullMask
}
