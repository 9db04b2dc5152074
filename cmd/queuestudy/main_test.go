package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		cells, par int
		ok         bool
	}{
		{0, 0, true}, // 0 selects the NIC's default geometry
		{128, 0, true},
		{128, 4, true},
		{-1, 0, false},
		{-5, 0, false},
		{0, -1, false},
		{128, -3, false},
	} {
		if err := checkFlags(c.cells, c.par); (err == nil) != c.ok {
			t.Errorf("checkFlags(-cells %d -par %d) = %v, want ok=%v", c.cells, c.par, err, c.ok)
		}
	}
}
