package alpu

// priotree.go models the §III-B priority-selection hardware at the
// bit/mux level: within a cell block, pairs of (match, tag) outputs are
// combined through a log2(blockSize)-deep tree of 2-to-1 muxes, with the
// mux select lines encoding successive bits of the "match location"; the
// same structure repeats across blocks to form the unit-level result.
// The functional Device uses the collapsed findMatch; this model exists
// to verify that the hardware encoding described in the paper computes
// the same answer, and it is what the FPGA estimator's LUT counts are
// grounded in.

import "alpusim/internal/match"

// prioIn is one leaf of the priority tree: a cell's (or block's) match
// flag, its tag output, and its already-encoded location bits.
type prioIn struct {
	match bool
	tag   uint32
	loc   int // location bits encoded so far
}

// prioLevel combines adjacent pairs with the paper's rule: "the higher
// cell in each pair selects its tag if it matched and the partner tag if
// it did not", and the pair's OR of match bits drives the next level. The
// select decision is encoded into location bit `bit` — the first level
// produces the lowest order bit of the match location, exactly as §III-B
// describes.
func prioLevel(in []prioIn, bit int) []prioIn {
	out := make([]prioIn, 0, (len(in)+1)/2)
	for i := 0; i < len(in); i += 2 {
		if i+1 >= len(in) {
			out = append(out, in[i])
			continue
		}
		lo, hi := in[i], in[i+1]
		var sel prioIn
		if hi.match {
			// Higher order = higher priority (§III-B: the highest order
			// cell, furthest right, is the highest priority).
			sel = hi
			sel.loc = hi.loc | 1<<bit
		} else {
			sel = lo
		}
		sel.match = lo.match || hi.match
		out = append(out, sel)
	}
	return out
}

// prioTree runs the full mux tree over the leaves and returns whether any
// leaf matched, the winning tag, and the encoded match location
// (the winning leaf's index).
func prioTree(in []prioIn) (matched bool, tag uint32, loc int) {
	if len(in) == 0 {
		return false, 0, 0
	}
	level := in
	for bit := 0; len(level) > 1; bit++ {
		level = prioLevel(level, bit)
	}
	root := level[0]
	if !root.match {
		return false, 0, 0
	}
	return true, root.tag, root.loc
}

// MatchLocation runs the hardware priority structure over the device's
// current cells for a probe: per-block trees feed an inter-block tree,
// exactly as the cell block (Fig. 2(c)) feeds the associative match
// engine (Fig. 2(d)). It returns whether a match exists, the winning tag,
// and the absolute cell index.
func (d *Device) MatchLocation(probe Probe) (bool, uint32, int) {
	bs := d.cfg.Geometry.BlockSize
	nb := d.cfg.Geometry.Blocks()
	pm := probeMask(d.env.Variant, probe)

	blocks := make([]prioIn, nb)
	for b := 0; b < nb; b++ {
		leaves := make([]prioIn, bs)
		for i := 0; i < bs; i++ {
			c := d.cells[b*bs+i]
			// The leaf match bit is the AND of the compare output and the
			// valid bit (§III-A: "invalid data cannot produce a valid
			// match").
			leaves[i] = prioIn{
				match: d.isValid(b*bs+i) && match0(c, d.env.Variant, probe.Bits, pm),
				tag:   c.tag,
			}
		}
		m, t, loc := prioTree(leaves)
		blocks[b] = prioIn{match: m, tag: t, loc: loc}
	}
	// Inter-block prioritisation: "the cell block outputs are combined and
	// prioritized in the same manner as cell outputs" (§III-C).
	interIn := make([]prioIn, nb)
	for b := 0; b < nb; b++ {
		interIn[b] = prioIn{match: blocks[b].match, tag: blocks[b].tag, loc: b}
	}
	m, t, blockIdx := prioTreeKeepLoc(interIn)
	if !m {
		return false, 0, -1
	}
	return true, t, blockIdx*bs + blocks[blockIdx].loc
}

// prioTreeKeepLoc is prioTree for inputs that carry pre-assigned location
// values (block indices) rather than encoding them level by level.
func prioTreeKeepLoc(in []prioIn) (bool, uint32, int) {
	best := -1
	var tag uint32
	// Hardware equivalence: the mux tree selects the highest-index
	// matching input; expressed directly.
	for i := len(in) - 1; i >= 0; i-- {
		if in[i].match {
			best = i
			tag = in[i].tag
			break
		}
	}
	if best < 0 {
		return false, 0, -1
	}
	return true, tag, best
}

// match0 is the cell compare (Fig. 2(a)/(b)) for the RTL-level model.
func match0(c cell, v Variant, probeBits, pm match.Bits) bool {
	return match.Matches(c.bits, entryMask(v, c.mask), probeBits, pm)
}
