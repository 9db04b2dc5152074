package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		size int
		ok   bool
	}{
		{0, true},
		{1024, true},
		{-1, false},
		{-100, false},
	} {
		if err := checkFlags(c.size); (err == nil) != c.ok {
			t.Errorf("checkFlags(-size %d) = %v, want ok=%v", c.size, err, c.ok)
		}
	}
}
