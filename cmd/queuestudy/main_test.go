package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		cells int
		ok    bool
	}{
		{0, true}, // 0 selects the NIC's default geometry
		{128, true},
		{-1, false},
		{-5, false},
	} {
		if err := checkFlags(c.cells); (err == nil) != c.ok {
			t.Errorf("checkFlags(-cells %d) = %v, want ok=%v", c.cells, err, c.ok)
		}
	}
}
