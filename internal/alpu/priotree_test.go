package alpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// fillDevice writes cells directly (white-box) for priority-tree tests.
func fillDevice(cells, block int, occupied map[int]uint32) *Device {
	eng := sim.NewEngine()
	d := MustDevice(eng, "t", Config{
		Geometry: Geometry{Cells: cells, BlockSize: block},
		Clock:    sim.MHz(500),
	}, posted)
	b, m := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 3})
	for idx, tag := range occupied {
		placeCell(d, idx, cell{bits: b, mask: m, tag: tag})
	}
	return d
}

func probeFor() Probe {
	return Probe{Bits: match.Pack(match.Header{Context: 1, Source: 2, Tag: 3})}
}

func TestPrioTreeSingleMatch(t *testing.T) {
	for _, idx := range []int{0, 1, 7, 8, 15, 16, 31} {
		d := fillDevice(32, 8, map[int]uint32{idx: 42})
		ok, tag, loc := d.MatchLocation(probeFor())
		if !ok || tag != 42 || loc != idx {
			t.Errorf("single match at %d: ok=%v tag=%d loc=%d", idx, ok, tag, loc)
		}
	}
}

func TestPrioTreeHighestIndexWins(t *testing.T) {
	d := fillDevice(32, 8, map[int]uint32{3: 1, 17: 2, 30: 3})
	ok, tag, loc := d.MatchLocation(probeFor())
	if !ok || tag != 3 || loc != 30 {
		t.Fatalf("priority: ok=%v tag=%d loc=%d, want tag 3 at 30", ok, tag, loc)
	}
}

func TestPrioTreeNoMatch(t *testing.T) {
	d := fillDevice(32, 8, nil)
	if ok, _, _ := d.MatchLocation(probeFor()); ok {
		t.Fatal("empty device matched")
	}
	// Valid cells that don't compare-match must not match either.
	d = fillDevice(32, 8, map[int]uint32{5: 1})
	wrong := Probe{Bits: match.Pack(match.Header{Context: 9, Source: 9, Tag: 9})}
	if ok, _, _ := d.MatchLocation(wrong); ok {
		t.Fatal("non-matching probe matched")
	}
}

// Property: the RTL-level mux tree computes exactly what the collapsed
// findMatch computes, for every geometry and occupancy pattern.
func TestPrioTreeEquivalentToFindMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geoms := []Geometry{{16, 8}, {32, 8}, {64, 16}, {128, 32}, {8, 8}}
		g := geoms[rng.Intn(len(geoms))]
		occ := map[int]uint32{}
		for i := 0; i < g.Cells; i++ {
			if rng.Intn(3) == 0 {
				occ[i] = uint32(i + 1)
			}
		}
		d := fillDevice(g.Cells, g.BlockSize, occ)
		// Randomise which cells actually compare-match by flipping some
		// cells' stored bits.
		other := match.Pack(match.Header{Context: 2, Source: 2, Tag: 2})
		for i := range d.cells {
			if d.isValid(i) && rng.Intn(2) == 0 {
				d.cells[i].bits = other
			}
		}
		p := probeFor()
		wantIdx := d.findMatch(p)
		ok, tag, loc := d.MatchLocation(p)
		if wantIdx < 0 {
			return !ok
		}
		return ok && loc == wantIdx && tag == d.cells[wantIdx].tag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The location encoding is exactly the §III-B bit pattern: level k of the
// mux tree contributes bit k.
func TestPrioTreeLocationEncoding(t *testing.T) {
	leaves := make([]prioIn, 16)
	for i := range leaves {
		leaves[i] = prioIn{match: false, tag: uint32(i)}
	}
	for idx := 0; idx < 16; idx++ {
		ls := make([]prioIn, 16)
		copy(ls, leaves)
		ls[idx].match = true
		ok, tag, loc := prioTree(ls)
		if !ok || int(tag) != idx || loc != idx {
			t.Errorf("leaf %d: ok=%v tag=%d loc=%d", idx, ok, tag, loc)
		}
	}
}

func TestPrioTreeOddWidth(t *testing.T) {
	// Non-power-of-two inputs (the inter-block stage with an odd block
	// count) still resolve.
	ls := make([]prioIn, 5)
	ls[2].match = true
	ls[2].tag = 7
	ok, tag, _ := prioTree(ls)
	if !ok || tag != 7 {
		t.Fatalf("odd-width tree: ok=%v tag=%d", ok, tag)
	}
}
