package alpu

import (
	"fmt"
	"math/rand"
	"testing"

	"alpusim/internal/sim"
)

// placeCell writes c into cell i and marks it valid (white-box setup).
func placeCell(d *Device, i int, c cell) {
	d.cells[i] = c
	d.valid[i/64] |= 1 << uint(i%64)
}

// refArray is the per-cell reference for hole compaction: one valid flag
// and one tag per cell, stepped by the §III-B rule one cell at a time.
type refArray struct {
	valid []bool
	tag   []uint32
	bs    int // block size; the whole array under CompactAnyBlock
}

// step applies one compaction cycle. Enables come from the pre-cycle
// state: a cell is enabled when an empty cell lies higher in its own
// block, or when the lowest cell of the next block is empty. Moves apply
// top-down, so an enabled cell's data shifts up one position whenever the
// cell above is empty by then, and a contiguous enabled run shifts as a
// group.
func (r *refArray) step() bool {
	n := len(r.valid)
	before := append([]bool(nil), r.valid...)
	moved := false
	holeInBlock, nextLow := false, false
	for i := n - 1; i >= 0; i-- {
		if (i+1)%r.bs == 0 { // i is the top cell of its block
			holeInBlock = false
			nextLow = i+1 < n && !before[i+1]
		}
		if i+1 < n && (holeInBlock || nextLow) && r.valid[i] && !r.valid[i+1] {
			r.valid[i+1], r.valid[i] = true, false
			r.tag[i+1] = r.tag[i]
			moved = true
		}
		if !before[i] {
			holeInBlock = true
		}
	}
	return moved
}

// needsCompaction reports whether any valid cell has an empty cell above.
func (r *refArray) needsCompaction() bool {
	hole := false
	for i := len(r.valid) - 1; i >= 0; i-- {
		if !r.valid[i] {
			hole = true
		} else if hole {
			return true
		}
	}
	return false
}

// drain runs a copy to quiescence and returns the cycles it takes and the
// cycles until cell 0 is empty (-1 if it never empties).
func (r *refArray) drain() (quiet, zeroFree int) {
	c := refArray{valid: append([]bool(nil), r.valid...), tag: append([]uint32(nil), r.tag...), bs: r.bs}
	zeroFree = -1
	for {
		if zeroFree < 0 && !c.valid[0] {
			zeroFree = quiet
		}
		if !c.step() {
			return quiet, zeroFree
		}
		quiet++
	}
}

// kernelGeometries spans every compaction kernel case: block sizes 1 to
// 256, in-word and word-spanning blocks, and cell counts that are not
// multiples of 64.
var kernelGeometries = []Geometry{
	{8, 1}, {64, 1}, {96, 2}, {64, 4}, {128, 8}, {64, 16}, {96, 32},
	{64, 64}, {320, 64}, {128, 128}, {384, 128}, {256, 256}, {768, 256},
}

// TestCompactionKernelDifferential drives the word-parallel kernel and the
// per-cell reference from the same random layouts, step by step to
// quiescence, with random deletes, invalidates and cell-0 inserts mixed
// in. It covers every block size from 1 to 256 (in-word and word-spanning
// blocks), cell counts that are not multiples of 64, and CompactAnyBlock
// on and off.
func TestCompactionKernelDifferential(t *testing.T) {
	for _, g := range kernelGeometries {
		for _, anyBlock := range []bool{false, true} {
			g, anyBlock := g, anyBlock
			t.Run(fmt.Sprintf("cells=%d/block=%d/any=%v", g.Cells, g.BlockSize, anyBlock), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(g.Cells*1000 + g.BlockSize)))
				for trial := 0; trial < 12; trial++ {
					runKernelTrial(t, rng, g, anyBlock)
					if t.Failed() {
						return
					}
				}
			})
		}
	}
}

func runKernelTrial(t *testing.T, rng *rand.Rand, g Geometry, anyBlock bool) {
	t.Helper()
	d := MustDevice(sim.NewEngine(), "k", Config{
		Geometry: g, Clock: sim.MHz(500), CompactAnyBlock: anyBlock,
	}, posted)
	n := g.Cells
	ref := &refArray{valid: make([]bool, n), tag: make([]uint32, n), bs: g.BlockSize}
	if anyBlock {
		ref.bs = n
	}
	next := uint32(1)
	put := func(i int) {
		placeCell(d, i, cell{tag: next})
		ref.valid[i], ref.tag[i] = true, next
		next++
	}
	density := rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			put(i)
		}
	}
	validIdx := func() int {
		var idx []int
		for i, v := range ref.valid {
			if v {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return -1
		}
		return idx[rng.Intn(len(idx))]
	}

	// About eight perturbations per trial: each one costs a reference
	// drain to refresh the remaining-cycle counts.
	steps := 2*n + 64
	quiet, zeroFree := ref.drain()
	for step := 0; step < steps; step++ {
		if d.valid[len(d.valid)-1]&^d.lastMask != 0 {
			t.Fatalf("step %d: bits beyond cell %d set: %#x", step, n, d.valid[len(d.valid)-1])
		}
		occ := 0
		for i := 0; i < n; i++ {
			if d.isValid(i) != ref.valid[i] {
				t.Fatalf("step %d: cell %d valid=%v, reference %v", step, i, d.isValid(i), ref.valid[i])
			}
			if ref.valid[i] {
				occ++
				if d.cells[i].tag != ref.tag[i] {
					t.Fatalf("step %d: cell %d tag %d, reference %d", step, i, d.cells[i].tag, ref.tag[i])
				}
			}
		}
		if got := d.Occupancy(); got != occ {
			t.Fatalf("step %d: Occupancy %d, reference %d", step, got, occ)
		}
		if got, want := d.needsCompaction(), ref.needsCompaction(); got != want {
			t.Fatalf("step %d: needsCompaction %v, reference %v", step, got, want)
		}
		if h := d.holesAboveLowestValid(); h > quiet || (h == 0) != (quiet == 0) {
			t.Fatalf("step %d: holesAboveLowestValid %d, %d cycles remain", step, h, quiet)
		}
		if ref.valid[0] && occ < n {
			if got := d.cyclesUntilCellZeroFree(); got != zeroFree {
				t.Fatalf("step %d: cyclesUntilCellZeroFree %d, reference %d", step, got, zeroFree)
			}
		}

		// Perturb now and then, as matches, invalidates and inserts do.
		perturbed := true
		switch r := rng.Intn(steps); {
		case r < 3:
			if i := validIdx(); i >= 0 {
				d.deleteAt(i)
				copy(ref.valid[1:i+1], ref.valid[0:i])
				copy(ref.tag[1:i+1], ref.tag[0:i])
				ref.valid[0] = false
			}
		case r < 6:
			if i := validIdx(); i >= 0 {
				d.invalidate(ref.tag[i])
				ref.valid[i] = false
			}
		case r < 8 && !ref.valid[0]:
			put(0)
		default:
			perturbed = false
		}
		if perturbed {
			quiet, zeroFree = ref.drain()
			continue
		}

		moved, want := d.shiftStep(), ref.step()
		if moved != want {
			t.Fatalf("step %d: moved %v, reference %v", step, moved, want)
		}
		if moved {
			quiet--
			if zeroFree > 0 {
				zeroFree--
			}
		}
	}
}

// TestMaterializeStepsDifferential applies bursts of compaction cycles
// through materializeSteps, the batched path that tick and the idle drain
// run, and checks every burst against as many steps of the per-cell
// reference: the bitmap, the tags of the valid cells, and the ShiftCycles
// delta against the reference steps that moved data. Each layout is
// drained twice: by a burst of 1 and then bursts of random lengths, and
// by one burst that runs past quiescence.
func TestMaterializeStepsDifferential(t *testing.T) {
	for _, g := range kernelGeometries {
		for _, anyBlock := range []bool{false, true} {
			g, anyBlock := g, anyBlock
			t.Run(fmt.Sprintf("cells=%d/block=%d/any=%v", g.Cells, g.BlockSize, anyBlock), func(t *testing.T) {
				d := MustDevice(sim.NewEngine(), "k", Config{
					Geometry: g, Clock: sim.MHz(500), CompactAnyBlock: anyBlock,
				}, posted)
				bs := g.BlockSize
				if anyBlock {
					bs = g.Cells
				}
				rng := rand.New(rand.NewSource(int64(g.Cells*1000 + g.BlockSize)))
				for trial := 0; trial < 6; trial++ {
					for _, l := range burstLayouts {
						layout := l.gen(rng, g.Cells, bs)
						for _, past := range []bool{false, true} {
							runBursts(t, d, l.name, layout, bs, rng, past)
							if t.Failed() {
								return
							}
						}
					}
				}
			})
		}
	}
}

// glideLayout fills the top run [s, n) of a random length and, below it,
// valid cells each with an empty cell directly above: the glide form.
func glideLayout(rng *rand.Rand, n int) (v []bool, s int) {
	v = make([]bool, n)
	s = n - rng.Intn(n+1)
	for i := s; i < n; i++ {
		v[i] = true
	}
	maxGap := 1 + rng.Intn(n/2+1)
	for i := s - 2 - rng.Intn(maxGap); i >= 0; i -= 2 + rng.Intn(maxGap) {
		v[i] = true
	}
	return v, s
}

// burstLayouts are the starting layouts of TestMaterializeStepsDifferential
// on n cells in blocks of bs: the glide form, and three kinds that are not
// in it.
var burstLayouts = []struct {
	name string
	gen  func(rng *rand.Rand, n, bs int) []bool
}{
	{"glide", func(rng *rand.Rand, n, bs int) []bool {
		v, _ := glideLayout(rng, n)
		return v
	}},
	{"random", func(rng *rand.Rand, n, bs int) []bool {
		v := make([]bool, n)
		density := rng.Float64()
		for i := range v {
			v[i] = rng.Float64() < density
		}
		return v
	}},
	// A glide layout plus two adjacent valid cells on either side of a
	// block boundary with an empty cell above them: the lower cell waits
	// a cycle while the upper one moves.
	{"straddle", func(rng *rand.Rand, n, bs int) []bool {
		v, _ := glideLayout(rng, n)
		if n/bs < 2 {
			return v
		}
		b := bs * (1 + rng.Intn(n/bs-1))
		v[b-1], v[b] = true, true
		if b+1 < n {
			v[b+1] = false
		}
		return v
	}},
	// A glide layout with holes punched into its top run.
	{"holey-top", func(rng *rand.Rand, n, bs int) []bool {
		v, s := glideLayout(rng, n)
		if s == n {
			return v
		}
		for h := 1 + rng.Intn(3); h > 0; h-- {
			v[s+rng.Intn(n-s)] = false
		}
		return v
	}},
}

// runBursts loads layout into d and into a reference, then drains both
// by bursts, comparing them after each. With past set the first burst
// already runs past quiescence; otherwise bursts of 1 and then of random
// lengths run until one outlasts the drain.
func runBursts(t *testing.T, d *Device, kind string, layout []bool, bs int, rng *rand.Rand, past bool) {
	t.Helper()
	n := len(layout)
	ref := &refArray{valid: append([]bool(nil), layout...), tag: make([]uint32, n), bs: bs}
	for i := range d.valid {
		d.valid[i] = 0
	}
	for i, v := range layout {
		if v {
			ref.tag[i] = uint32(i + 1)
			placeCell(d, i, cell{tag: uint32(i + 1)})
		}
	}
	quiet, _ := ref.drain()
	for burst := 0; ; burst++ {
		k := 1
		switch {
		case past:
			k = quiet + 1 + rng.Intn(n)
		case burst > 0:
			k = 1 + rng.Intn(1+rng.Intn(n))
		}
		before := d.stats.ShiftCycles
		d.materializeSteps(k)
		moved := 0
		for moved < k && ref.step() {
			moved++
		}
		where := fmt.Sprintf("%s layout, past=%v, burst %d of %d cycles", kind, past, burst, k)
		if d.valid[len(d.valid)-1]&^d.lastMask != 0 {
			t.Fatalf("%s: bits beyond cell %d set: %#x", where, n, d.valid[len(d.valid)-1])
		}
		for i := 0; i < n; i++ {
			if d.isValid(i) != ref.valid[i] {
				t.Fatalf("%s: cell %d valid=%v, reference %v", where, i, d.isValid(i), ref.valid[i])
			}
			if ref.valid[i] && d.cells[i].tag != ref.tag[i] {
				t.Fatalf("%s: cell %d tag %d, reference %d", where, i, d.cells[i].tag, ref.tag[i])
			}
		}
		if got := d.stats.ShiftCycles - before; got != uint64(moved) {
			t.Fatalf("%s: ShiftCycles grew %d, reference moved data on %d cycles", where, got, moved)
		}
		if moved < k {
			return
		}
	}
}
