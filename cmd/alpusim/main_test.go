package main

import (
	"flag"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		size, par, shards int
		format, faults    string
		ok                bool
	}{
		{0, 0, 0, "table", "", true},
		{1024, 0, 0, "table", "", true},
		{1024, 8, 0, "table", "", true},
		{0, 0, 4, "csv", "0.02", true},
		{-1, 0, 0, "table", "", false},
		{-100, 0, 0, "table", "", false},
		{0, -1, 0, "table", "", false},
		{1024, -3, 0, "table", "", false},
		{0, 0, -1, "table", "", false},
		{0, 0, 0, "json", "", false},
		{0, 0, 0, "table", "garbage", false},
	} {
		fm, err := checkFlags(c.size, c.par, c.shards, c.format, c.faults, 1)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(-size %d -par %d -shards %d -format %q -faults %q) = %v, want ok=%v",
				c.size, c.par, c.shards, c.format, c.faults, err, c.ok)
		}
		if err == nil && (fm != nil) != (c.faults != "") {
			t.Errorf("checkFlags(-faults %q) fault model = %v", c.faults, fm)
		}
	}
}

// TestFlagSurface pins the registered flags: the shared observability
// block must not add or drop an option of this cmd.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := "cpuprofile experiment faults flightdump flightsize format jobs linger log memprofile " +
		"metrics par quick report seed serve shards simprof size timeseries trace"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("flags:\n got %s\nwant %s", s, want)
	}
}
