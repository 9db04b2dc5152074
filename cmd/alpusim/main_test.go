package main

import (
	"flag"
	"strings"
	"testing"

	"alpusim/internal/clitest"
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

// TestMain doubles as the alpusim binary (ALPUSIM_MAIN set), so the
// goldens drive the command end to end in a fresh process.
func TestMain(m *testing.M) { clitest.Main(m, "ALPUSIM_MAIN", main) }

// TestQuickAllGolden pins the stdout, and the files the output flags
// write, of every deterministic experiment byte for byte at every
// clitest variant. go test ./cmd/alpusim -update rewrites the goldens.
func TestQuickAllGolden(t *testing.T) {
	seed := []string{"-seed", "42"}
	clitest.New("ALPUSIM_MAIN").Run(t, []clitest.Case{
		{Name: "all-quick", Args: []string{"-quick", "-experiment", "all"}},
		// Full size: the quick grids do not expose every cost constant
		// (ALPUMatchCycles among them).
		{Name: "all", Args: []string{"-experiment", "all"}},
		{Name: "chaos", Args: append([]string{"-experiment", "chaos"}, seed...)},
		{Name: "devchaos", Args: append([]string{"-experiment", "devchaos"}, seed...)},
		{Name: "tenancy", Args: append([]string{"-quick", "-experiment", "tenancy"}, seed...), Files: []string{"report"}},
		// The receive outcomes are the same at every fabric width.
		{Name: "tenancy-shards1", Golden: "tenancy-outcomes", Args: append([]string{"-quick", "-experiment", "tenancy", "-shards", "1"}, seed...)},
		{Name: "tenancy-shards4", Golden: "tenancy-outcomes", Args: append([]string{"-quick", "-experiment", "tenancy", "-shards", "4"}, seed...)},
		{Name: "tenancy-shards8", Golden: "tenancy-outcomes", Args: append([]string{"-quick", "-experiment", "tenancy", "-shards", "8"}, seed...)},
		{Name: "critpath", Args: append([]string{"-quick", "-experiment", "critpath"}, seed...), Files: []string{"metrics"}},
		{Name: "critpath-faults", Args: append([]string{"-quick", "-experiment", "critpath", "-faults", "drop=0.02,corrupt=0.01,alpubitflip=0.01"}, seed...),
			Files: []string{"metrics"}},
		{Name: "phases-faults", Args: append([]string{"-quick", "-experiment", "phases", "-faults", "0.02"}, seed...),
			Files: []string{"trace", "metrics", "timeseries", "simprof", "report"}},
	})
}
