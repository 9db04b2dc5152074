package obs

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/sweep"
)

// TestCLISinks drives every sink of the block through one run: the file
// sinks, the report fan-out to files and server, the worlds served on
// /metrics, -log and both profiles.
func TestCLISinks(t *testing.T) {
	t.Cleanup(func() { sweep.SetProgress(nil); bench.WorldObserver = nil })
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := NewCLI("test", fs, FlagTrace|FlagMetrics|FlagReport|FlagTimeseries|FlagSimProf|FlagLog|FlagServe|FlagProfile)
	err := fs.Parse([]string{
		"-trace", path("trace.json"), "-report", path("report.html"), "-timeseries", path("ts.json"),
		"-log", path("diag.log"), "-serve", "127.0.0.1:0",
		"-cpuprofile", path("cpu.pprof"), "-memprofile", path("mem.pprof"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if c.Log == nil || c.Server == nil || c.Progress == nil {
		t.Fatalf("Start left Log=%v Server=%v Progress=%v", c.Log, c.Server, c.Progress)
	}
	if !c.Want(FlagTrace) || !c.Want(FlagMetrics|FlagTrace) || c.Want(FlagMetrics|FlagSimProf) || !c.WantReport() {
		t.Error("Want/WantReport disagree with the parsed flags")
	}

	if err := c.Emit(FlagTrace, func(w io.Writer) error {
		_, err := io.WriteString(w, "trace-bytes")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Emit(FlagMetrics, func(io.Writer) error {
		t.Error("Emit wrote an unset sink")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep := reportFixture()
	if err := c.PublishReport(rep); err != nil {
		t.Fatal(err)
	}
	body, _ := get(t, "http://"+c.Server.Addr()+"/report")
	bench.Halo(mpi.Config{Ranks: 2}, 1, 64, 1)
	if metrics, _ := get(t, "http://"+c.Server.Addr()+"/metrics"); !strings.Contains(metrics, "alpusim_nic1_fw_packets_handled ") {
		t.Error("/metrics lacks the telemetry of a world run after Start")
	}
	c.Log.Info("diagnostic")
	c.Close("test")

	for name, want := range map[string]string{
		"trace.json":  "trace-bytes",
		"report.html": string(rep.HTML()),
		"ts.json":     string(rep.TimeseriesJSON()),
	} {
		if got, err := os.ReadFile(path(name)); err != nil || string(got) != want {
			t.Errorf("%s = %.40q, %v; want %.40q", name, got, err, want)
		}
	}
	if body != string(rep.HTML()) {
		t.Error("/report does not serve the published report")
	}
	for _, name := range []string{"diag.log", "cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

func TestCLIEmitErrorNamesFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := NewCLI("test", fs, FlagMetrics)
	if err := fs.Parse([]string{"-metrics", filepath.Join(t.TempDir(), "missing", "m.json")}); err != nil {
		t.Fatal(err)
	}
	err := c.Emit(FlagMetrics, func(io.Writer) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "-metrics: ") {
		t.Errorf("Emit into a missing directory = %v, want a -metrics error", err)
	}
}

// TestCLIRunFlags validates the run flags and checks the plan they build.
func TestCLIRunFlags(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		args   []string
		err    string // the error's prefix; "" = valid
		jobs   int
		par    int
		flight int
		seed   int64
		fault  bool
	}{
		{args: nil, jobs: procs, seed: 1},
		{args: []string{"-jobs", "0"}, jobs: procs, seed: 1},
		{args: []string{"-jobs", "-1"}, jobs: procs, seed: 1},
		{args: []string{"-jobs", "3", "-par", "8", "-flightsize", "256"}, jobs: 3, par: 8, flight: 256, seed: 1},
		{args: []string{"-par", "-1"}, err: "-par -1: "},
		{args: []string{"-faults", "garbage"}, err: "-faults: "},
		{args: []string{"-faults", "drop=2"}, err: "-faults: "},
		{args: []string{"-faults", "0.02", "-seed", "42"}, jobs: procs, seed: 42, fault: true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		cli := NewCLI("test", fs, FlagRun)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := cli.Validate()
		if c.err != "" {
			if err == nil || !strings.HasPrefix(err.Error(), c.err) {
				t.Errorf("%v: Validate = %v, want an error starting %q", c.args, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: Validate = %v", c.args, err)
			continue
		}
		p := cli.Plan
		if p.Jobs != c.jobs || p.World.Partitions != c.par || p.World.FlightEvents != c.flight ||
			p.Seed != c.seed || (p.Faults != nil) != c.fault {
			t.Errorf("%v: plan jobs %d par %d flightsize %d seed %d faults %v; want %d %d %d %d faults=%v",
				c.args, p.Jobs, p.World.Partitions, p.World.FlightEvents, p.Seed, p.Faults,
				c.jobs, c.par, c.flight, c.seed, c.fault)
		}
		if p.Faults != nil && p.Faults.Seed != c.seed {
			t.Errorf("%v: fault model seed %d, want -seed %d", c.args, p.Faults.Seed, c.seed)
		}
	}
}
