package match

import "testing"

func TestDispatchKeyIgnoresTag(t *testing.T) {
	for src := int32(0); src < 32; src++ {
		for ctx := uint16(0); ctx < 16; ctx++ {
			base := DispatchKey(Pack(Header{Context: ctx, Source: src, Tag: 0}))
			for _, tag := range []int32{1, 7, 4095, 65535} {
				b := Pack(Header{Context: ctx, Source: src, Tag: tag})
				if DispatchKey(b) != base {
					t.Fatalf("DispatchKey varies with tag: ctx=%d src=%d tag=%d", ctx, src, tag)
				}
			}
		}
	}
}

func TestShardOfRangeAndStability(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		counts := make([]int, shards)
		for src := int32(0); src < 64; src++ {
			for ctx := uint16(0); ctx < 32; ctx++ {
				b := Pack(Header{Context: ctx, Source: src, Tag: 9})
				s := ShardOf(b, shards)
				if s < 0 || s >= shards {
					t.Fatalf("ShardOf out of range: %d for %d shards", s, shards)
				}
				if s2 := ShardOf(Pack(Header{Context: ctx, Source: src, Tag: 17}), shards); s2 != s {
					t.Fatalf("ShardOf not tag-invariant: %d vs %d", s, s2)
				}
				counts[s]++
			}
		}
		// The mixer must actually spread dense (ctx, src) pairs: no shard
		// may be empty, none may hold everything (shards > 1).
		if shards > 1 {
			for s, c := range counts {
				if c == 0 || c == 64*32 {
					t.Fatalf("shards=%d: degenerate spread, shard %d holds %d/%d", shards, s, c, 64*32)
				}
			}
		}
	}
}

func TestWildcardSource(t *testing.T) {
	_, exact := PackRecv(Recv{Context: 1, Source: 3, Tag: 5})
	if WildcardSource(exact) {
		t.Fatal("exact-source mask reported wildcard")
	}
	_, anySrc := PackRecv(Recv{Context: 1, Source: AnySource, Tag: 5})
	if !WildcardSource(anySrc) {
		t.Fatal("ANY_SOURCE mask not reported wildcard")
	}
	_, anyTag := PackRecv(Recv{Context: 1, Source: 3, Tag: AnyTag})
	if WildcardSource(anyTag) {
		t.Fatal("ANY_TAG-only mask reported source wildcard")
	}
}

// InsertOrdered must honour an entry's existing Seq stamp: a demoted old
// entry re-inserted behind a newer bucket-mate must still win FindFirst,
// and the wildcard/bucket sequence merge must keep working.
func TestHashListInsertOrderedRestoresOrder(t *testing.T) {
	h := NewHashList()
	mk := func(tag int32, seq uint64) *Entry {
		return &Entry{Bits: Pack(Header{Context: 2, Source: 3, Tag: tag}), Mask: FullMask, Seq: seq}
	}
	newer := mk(5, 10)
	h.InsertOrdered(newer)
	older := mk(5, 4)
	h.InsertOrdered(older)
	if got := h.FindFirst(older.Bits, FullMask); got != older {
		t.Fatalf("FindFirst returned seq %d, want the older seq %d", got.Seq, older.Seq)
	}
	// A wildcard between the two must win against the newer bucket entry
	// but lose to the older one.
	wb, wm := PackRecv(Recv{Context: 2, Source: AnySource, Tag: 5})
	wild := &Entry{Bits: wb, Mask: wm, Seq: 7}
	h.InsertOrdered(wild)
	if got := h.FindFirst(older.Bits, FullMask); got != older {
		t.Fatalf("wildcard merge broke: got seq %d, want %d", got.Seq, older.Seq)
	}
	h.Remove(older)
	if got := h.FindFirst(older.Bits, FullMask); got != wild {
		t.Fatalf("after removing oldest: got seq %d, want wildcard seq %d", got.Seq, wild.Seq)
	}
	// Seq counter must have absorbed the explicit stamps so a later Append
	// still lands strictly after everything inserted.
	tail := &Entry{Bits: mk(5, 0).Bits, Mask: FullMask}
	h.Append(tail)
	if tail.Seq <= newer.Seq {
		t.Fatalf("Append after InsertOrdered stamped seq %d, not past %d", tail.Seq, newer.Seq)
	}
}
