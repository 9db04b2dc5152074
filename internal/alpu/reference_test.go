package alpu

import (
	"testing"

	"alpusim/internal/match"
)

func hdrBits(ctx uint16, src, tag int32) match.Bits {
	return match.Pack(match.Header{Context: ctx, Source: src, Tag: tag})
}

func TestReferenceFirstPostedWins(t *testing.T) {
	r := NewReference(PostedReceives, 8)
	b, m := match.PackRecv(match.Recv{Context: 1, Source: match.AnySource, Tag: 5})
	r.Insert(b, m, 100) // wildcard posted first
	b2, m2 := match.PackRecv(match.Recv{Context: 1, Source: 2, Tag: 5})
	r.Insert(b2, m2, 200) // exact posted second

	tag, ok := r.Match(Probe{Bits: hdrBits(1, 2, 5)})
	if !ok || tag != 100 {
		t.Fatalf("Match = %d,%v; want 100 (first posted), not the more exact 200", tag, ok)
	}
	// The wildcard was consumed; now the exact one matches.
	tag, ok = r.Match(Probe{Bits: hdrBits(1, 2, 5)})
	if !ok || tag != 200 {
		t.Fatalf("second Match = %d,%v; want 200", tag, ok)
	}
	if _, ok := r.Match(Probe{Bits: hdrBits(1, 2, 5)}); ok {
		t.Fatal("third Match succeeded on empty unit")
	}
}

func TestReferenceUnexpectedVariantMaskFromProbe(t *testing.T) {
	r := NewReference(UnexpectedMessages, 8)
	r.Insert(hdrBits(1, 3, 9), 0, 1) // stored mask ignored for this variant
	r.Insert(hdrBits(1, 4, 9), 0, 2)

	pb, pm := match.PackRecv(match.Recv{Context: 1, Source: match.AnySource, Tag: 9})
	tag, ok := r.Match(Probe{Bits: pb, Mask: pm})
	if !ok || tag != 1 {
		t.Fatalf("wildcard probe matched %d,%v; want oldest (1)", tag, ok)
	}
	// Exact probe for the remaining entry.
	eb, em := match.PackRecv(match.Recv{Context: 1, Source: 4, Tag: 9})
	tag, ok = r.Match(Probe{Bits: eb, Mask: em})
	if !ok || tag != 2 {
		t.Fatalf("exact probe matched %d,%v; want 2", tag, ok)
	}
}

func TestReferenceCapacity(t *testing.T) {
	r := NewReference(PostedReceives, 2)
	if r.Capacity() != 2 || r.Free() != 2 {
		t.Fatal("fresh unit capacity wrong")
	}
	if !r.Insert(hdrBits(1, 0, 0), match.FullMask, 1) {
		t.Fatal("insert 1 failed")
	}
	if !r.Insert(hdrBits(1, 0, 1), match.FullMask, 2) {
		t.Fatal("insert 2 failed")
	}
	if r.Insert(hdrBits(1, 0, 2), match.FullMask, 3) {
		t.Fatal("insert into full unit succeeded")
	}
	if r.Free() != 0 || r.Occupancy() != 2 {
		t.Fatalf("Free=%d Occ=%d", r.Free(), r.Occupancy())
	}
}

func TestReferenceReset(t *testing.T) {
	r := NewReference(PostedReceives, 4)
	r.Insert(hdrBits(1, 0, 0), match.FullMask, 1)
	r.Reset()
	if r.Occupancy() != 0 {
		t.Fatal("Reset left entries")
	}
	if _, ok := r.Peek(Probe{Bits: hdrBits(1, 0, 0)}); ok {
		t.Fatal("Peek matched after Reset")
	}
}

func TestReferencePeekDoesNotConsume(t *testing.T) {
	r := NewReference(PostedReceives, 4)
	r.Insert(hdrBits(1, 0, 7), match.FullMask, 42)
	for i := 0; i < 3; i++ {
		tag, ok := r.Peek(Probe{Bits: hdrBits(1, 0, 7)})
		if !ok || tag != 42 {
			t.Fatalf("Peek %d = %d,%v", i, tag, ok)
		}
	}
	if r.Occupancy() != 1 {
		t.Fatal("Peek consumed the entry")
	}
}

func TestReferenceTagsOrder(t *testing.T) {
	r := NewReference(PostedReceives, 4)
	for i := uint32(1); i <= 3; i++ {
		r.Insert(hdrBits(1, 0, int32(i)), match.FullMask, i)
	}
	tags := r.Tags()
	if len(tags) != 3 || tags[0] != 1 || tags[1] != 2 || tags[2] != 3 {
		t.Fatalf("Tags = %v, want [1 2 3] oldest-first", tags)
	}
}

func TestGeometryValidate(t *testing.T) {
	good := []Geometry{{128, 8}, {256, 32}, {64, 16}, {8, 8}, {64, 64}, {256, 128}, {256, 256}}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", g, err)
		}
	}
	bad := []Geometry{{0, 8}, {128, 0}, {128, 12}, {100, 8}, {-8, 8}}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted bad geometry", g)
		}
	}
}

func TestGeometryPipelineCycles(t *testing.T) {
	// The six published build points (Tables IV/V).
	cases := []struct {
		g    Geometry
		want int
	}{
		{Geometry{256, 8}, 7},
		{Geometry{256, 16}, 7},
		{Geometry{256, 32}, 6},
		{Geometry{128, 8}, 7},
		{Geometry{128, 16}, 6},
		{Geometry{128, 32}, 6},
	}
	for _, c := range cases {
		if got := c.g.PipelineCycles(); got != c.want {
			t.Errorf("PipelineCycles(%+v) = %d, want %d", c.g, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if PostedReceives.String() != "posted-receives" ||
		UnexpectedMessages.String() != "unexpected-messages" {
		t.Error("Variant.String wrong")
	}
	for op, want := range map[Opcode]string{
		OpStartInsert: "START INSERT",
		OpInsert:      "INSERT",
		OpStopInsert:  "STOP INSERT",
		OpReset:       "RESET",
	} {
		if op.String() != want {
			t.Errorf("%v.String() = %q", int(op), op.String())
		}
	}
	for k, want := range map[RespKind]string{
		RespStartAck:     "START ACKNOWLEDGE",
		RespMatchSuccess: "MATCH SUCCESS",
		RespMatchFailure: "MATCH FAILURE",
	} {
		if k.String() != want {
			t.Errorf("RespKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Opcode(99).String() == "" || RespKind(99).String() == "" {
		t.Error("unknown enum String empty")
	}
}
