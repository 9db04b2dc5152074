package main

import (
	"flag"
	"strings"
	"testing"

	"alpusim/internal/clitest"
	"alpusim/internal/nic"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		cells, par    int
		ranks, faults string
		ok            bool
	}{
		{0, 0, "4,8,16", "", true}, // 0 selects the NIC's default geometry
		{128, 0, "4", "", true},
		{128, 4, "2, 8", "0.02", true},
		{-1, 0, "4", "", false},
		{-5, 0, "4", "", false},
		{0, -1, "4", "", false},
		{128, -3, "4", "", false},
		{128, 0, "4,x", "", false},
		{128, 0, "1", "", false},
		{128, 0, "", "", false},
		{128, 0, "4", "garbage", false},
		{100, 0, "4", "", false}, // not a whole number of 16-cell blocks
		{3, 0, "4", "", false},
		{1, 0, "4", "", false},
		{16, 0, "4", "", true},
	} {
		cells, ranks, fm, err := checkFlags(c.cells, c.par, c.ranks, c.faults, 1)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(-cells %d -par %d -ranks %q -faults %q) = %v, want ok=%v",
				c.cells, c.par, c.ranks, c.faults, err, c.ok)
		}
		if err == nil && (len(ranks) == 0 || (fm != nil) != (c.faults != "")) {
			t.Errorf("checkFlags(-ranks %q -faults %q) = %v, %v", c.ranks, c.faults, ranks, fm)
		}
		want := c.cells
		if want == 0 {
			want = nic.DefaultCells // the cell count nic.New fits, and the header prints
		}
		if err == nil && cells != want {
			t.Errorf("checkFlags(-cells %d) = %d cells, want %d", c.cells, cells, want)
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
	want := "breakdown cells cpuprofile faults flightsize jobs linger memprofile metrics par " +
		"ranks report seed serve shards trace workload"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("flags:\n got %s\nwant %s", s, want)
	}
}

// TestMain doubles as the queuestudy binary (QUEUESTUDY_MAIN set), so
// the goldens drive the command end to end in a fresh process.
func TestMain(m *testing.M) { clitest.Main(m, "QUEUESTUDY_MAIN", main) }

// TestGolden pins the study tables, and the files the output flags write,
// byte for byte at every clitest variant. go test
// ./cmd/queuestudy -update rewrites the goldens.
func TestGolden(t *testing.T) {
	clitest.New("QUEUESTUDY_MAIN").Run(t, []clitest.Case{
		{Name: "default"},
		// The -breakdown table moves with the partition count above 1:
		// the lifecycle recorder keys messages by (source, tag), which
		// these workloads reuse, so which message's stamps win depends on
		// how the recorder is sharded. Replayed at -par 0 and 1 only.
		{Name: "faults", Args: []string{"-faults", "0.02", "-shards", "4", "-ranks", "4,8", "-breakdown"},
			Files: []string{"trace", "metrics"}, MaxPar: 1},
	})
}
