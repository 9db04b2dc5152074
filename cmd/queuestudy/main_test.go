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
		cells    int
		ranks    string
		workload string
		shards   int
		bad      string // the flag the error names; "" = accepted
	}{
		{0, "4,8,16", "all", 0, ""}, // 0 selects the NIC's default geometry
		{128, "4", "all", 0, ""},
		{128, "2, 8", "all", 0, ""},
		{-1, "4", "all", 0, "-cells"},
		{-5, "4", "all", 0, "-cells"},
		{128, "4,x", "all", 0, "-ranks"},
		{128, "1", "all", 0, "-ranks"},
		{128, "", "all", 0, "-ranks"},
		{100, "4", "all", 0, "-cells"}, // not a whole number of 16-cell blocks
		{3, "4", "all", 0, "-cells"},
		{1, "4", "all", 0, "-cells"},
		{16, "4", "all", 0, ""},
		{128, "4", "halo", 0, ""},
		{128, "4", "irregular", 4, ""},
		{128, "4", "nope", 0, "-workload"},
		{128, "4", "", 0, "-workload"},
		{128, "4", "all", 1, ""},
		{128, "4", "all", -2, "-shards"},
	} {
		cells, ranks, err := checkFlags(c.cells, c.ranks, c.workload, c.shards)
		if (err == nil) != (c.bad == "") || (err != nil && !strings.HasPrefix(err.Error(), c.bad+" ")) {
			t.Errorf("checkFlags(-cells %d -ranks %q -workload %q -shards %d) = %v, want error naming %q",
				c.cells, c.ranks, c.workload, c.shards, err, c.bad)
		}
		if err == nil && len(ranks) == 0 {
			t.Errorf("checkFlags(-ranks %q) = %v", c.ranks, ranks)
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
		// The run report of the 4-rank studies (the default sweep's
		// report is 3 MB per golden).
		{Name: "report", Args: []string{"-ranks", "4"}, Files: []string{"report"}},
		// The -breakdown table moves with the partition count above 1:
		// the lifecycle recorder keys messages by (source, tag), which
		// these workloads reuse, so which message's stamps win depends on
		// how the recorder is sharded. Replayed at -par 0 and 1 only.
		{Name: "faults", Args: []string{"-faults", "0.02", "-shards", "4", "-ranks", "4,8", "-breakdown"},
			Files: []string{"trace", "metrics"}, MaxPar: 1},
	})
}
