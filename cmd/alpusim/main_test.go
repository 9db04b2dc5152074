package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"alpusim/internal/clitest"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		size, shards int
		format       string
		ok           bool
	}{
		{0, 0, "table", true},
		{1024, 0, "table", true},
		{0, 4, "csv", true},
		{-1, 0, "table", false},
		{-100, 0, "table", false},
		{0, -1, "table", false},
		{0, 0, "json", false},
	} {
		if err := checkFlags(c.size, c.shards, c.format); (err == nil) != c.ok {
			t.Errorf("checkFlags(-size %d -shards %d -format %q) = %v, want ok=%v",
				c.size, c.shards, c.format, err, c.ok)
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
		// The CSV writer, with Fig. 5/6 messages of 1024 bytes instead of
		// the paper's zero-byte payloads.
		{Name: "all-quick-csv", Args: []string{"-quick", "-experiment", "all", "-format", "csv", "-size", "1024"}},
		// Full size: the quick grids do not expose every cost constant
		// (ALPUMatchCycles among them).
		{Name: "all", Args: []string{"-experiment", "all"}},
		{Name: "chaos", Args: append([]string{"-experiment", "chaos"}, seed...)},
		{Name: "devchaos", Args: append([]string{"-experiment", "devchaos"}, seed...)},
		// A -faults value replaces the default matrix with one custom mix
		// or scenario.
		{Name: "chaos-custom", Args: []string{"-experiment", "chaos", "-faults", "drop=0.02,corrupt=0.01", "-seed", "7"}},
		{Name: "devchaos-custom", Args: []string{"-experiment", "devchaos", "-faults", "alpudeath@50us,fwcrash=0.005", "-seed", "7"}},
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
		// The flight-recorder post-mortem of the forced stall, at the
		// default ring size: a 2-rank world keeps the same ring at any
		// -par >= 1.
		{Name: "stall", Args: []string{"-experiment", "stall"}, Files: []string{"flightdump"}},
	})
}

// TestDevChaosLogsProtocolErrors: -log reaches every world of the run,
// so the device-chaos campaign's strikes are logged as recoverable
// protocol errors while stdout stays the pinned report.
func TestDevChaosLogsProtocolErrors(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "devchaos.log")
	cmd := exec.Command(os.Args[0], "-experiment", "devchaos", "-seed", "42", "-par", "1", "-log", logPath)
	cmd.Env = append(os.Environ(), "ALPUSIM_MAIN=1")
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(filepath.Join("testdata", "devchaos.golden")); err != nil || !bytes.Equal(stdout, want) {
		t.Errorf("stdout with -log differs from devchaos.golden (%v):\n%s", err, stdout)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(log, []byte("recoverable protocol error")) {
		t.Errorf("-log wrote no protocol-error record (%d bytes)", len(log))
	}
}
