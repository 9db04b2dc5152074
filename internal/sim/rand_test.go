package sim

import "testing"

// TestRandKnownAnswer pins Rand to the published splitmix64 sequence for
// seed 0, and the draw-free edges of Chance and Intn: every seeded fault
// schedule in the repository depends on these exact values.
func TestRandKnownAnswer(t *testing.T) {
	r := NewRand(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Next(); got != want {
			t.Fatalf("Next #%d = %#016x, want %#016x", i+1, got, want)
		}
	}

	a, b := NewRand(7), NewRand(7)
	if a.Chance(0) || !a.Chance(1) || a.Chance(-1) || !a.Chance(2) {
		t.Error("Chance must decide p <= 0 false and p >= 1 true")
	}
	if got := a.Intn(0); got != 0 {
		t.Errorf("Intn(0) = %d, want 0", got)
	}
	if a.Intn(-3) != 0 {
		t.Error("Intn(-3) != 0")
	}
	if a.Next() != b.Next() {
		t.Error("Chance(0/1) or Intn(<=0) advanced the stream")
	}

	if Mix64(0) != 0 {
		t.Errorf("Mix64(0) = %#x, want 0", Mix64(0))
	}
	if NewRand(0).Next() != Mix64(0x9E3779B97F4A7C15) {
		t.Error("Next is not Mix64 of the advanced state")
	}
}
