package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		size, par int
		ok        bool
	}{
		{0, 0, true},
		{1024, 0, true},
		{1024, 8, true},
		{-1, 0, false},
		{-100, 0, false},
		{0, -1, false},
		{1024, -3, false},
	} {
		if err := checkFlags(c.size, c.par); (err == nil) != c.ok {
			t.Errorf("checkFlags(-size %d -par %d) = %v, want ok=%v", c.size, c.par, err, c.ok)
		}
	}
}
