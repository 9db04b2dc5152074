package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/sweep"
)

// FlagGroup selects which of the shared flags a cmd registers. Every cmd
// registers the subset its runs can feed; a flag means the same thing,
// with the same default and usage, in every cmd that has it.
type FlagGroup uint

const (
	FlagTrace      FlagGroup = 1 << iota // -trace FILE
	FlagMetrics                          // -metrics FILE
	FlagReport                           // -report FILE, also served at /report
	FlagTimeseries                       // -timeseries FILE, also served at /timeseries
	FlagSimProf                          // -simprof FILE
	FlagLog                              // -log FILE ("-" = stderr)
	FlagServe                            // -serve ADDR and -linger DURATION
	FlagProfile                          // -cpuprofile FILE and -memprofile FILE
	FlagRun                              // -jobs, -par, -faults, -seed and -flightsize: the run plan
)

// fileSinks are the flags Emit writes to: a file path, "-" meaning stdout.
var fileSinks = [...]struct {
	sink        FlagGroup
	name, usage string
}{
	{FlagTrace, "trace", "write Chrome trace-event JSON of the run's worlds to this file (\"-\" = stdout)"},
	{FlagMetrics, "metrics", "write the run's metrics JSON to this file: the merged telemetry snapshot (alpusim critpath: the causal report) (\"-\" = stdout)"},
	{FlagReport, "report", "write the self-contained HTML run report to this file (\"-\" = stdout); with -serve it is also published at /report"},
	{FlagTimeseries, "timeseries", "write the simulated-time series dump as JSON to this file (\"-\" = stdout); with -serve it is also published at /timeseries"},
	{FlagSimProf, "simprof", "write a pprof-compatible simulated-time profile to this file (read with `go tool pprof`)"},
}

// CLI is a cmd's shared flag block: the observability flags, the run
// flags, and after Start the sinks they opened. After flag parsing,
// Validate it, then Start it; Close it when the run is done.
type CLI struct {
	name                   string
	paths                  [len(fileSinks)]string
	logPath, serveAddr     string
	cpuProfile, memProfile string
	linger                 time.Duration
	logFile, cpuFile       *os.File

	jobs, par, flightSize int
	seed                  int64
	faultSpec             string

	// Plan is the run plan the run flags describe, built by Validate;
	// Start adds the -log logger to its world template.
	Plan bench.Plan

	// Log is the -log diagnostic logger; nil without -log.
	Log *slog.Logger
	// Server is the -serve plane and Progress its sweep tracker; both
	// nil without -serve.
	Server   *Server
	Progress *sweep.Progress
}

// NewCLI registers the flags in group on fs for the cmd called name,
// which prefixes its diagnostics.
func NewCLI(name string, fs *flag.FlagSet, group FlagGroup) *CLI {
	c := &CLI{name: name}
	for i, f := range fileSinks {
		if group&f.sink != 0 {
			fs.StringVar(&c.paths[i], f.name, "", f.usage)
		}
	}
	if group&FlagLog != 0 {
		fs.StringVar(&c.logPath, "log", "", "write structured diagnostics (slog text, simulated-time stamped) to this file (\"-\" = stderr)")
	}
	if group&FlagServe != 0 {
		fs.StringVar(&c.serveAddr, "serve", "", "serve the live observability plane (/metrics, /healthz, /progress, /critpath, /report, /timeseries) on this address while the run lasts (e.g. \":9090\"; \":0\" picks a port)")
		fs.DurationVar(&c.linger, "linger", 0, "with -serve: keep the observability server up this long after the run finishes")
	}
	if group&FlagProfile != 0 {
		fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
		fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof allocation profile to this file on exit")
	}
	if group&FlagRun != 0 {
		fs.IntVar(&c.jobs, "jobs", 0, "parallel simulation worlds per sweep (1 = sequential; 0 or less = GOMAXPROCS); output is identical at any value")
		fs.IntVar(&c.par, "par", 0, "partitions per simulated world: conservative parallel simulation on per-partition engines (0 = serial engine; output is identical for any value >= 1)")
		fs.StringVar(&c.faultSpec, "faults", "", "fault model for the runs that take one: a probability (\"0.02\") or class=prob pairs (\"drop=0.01,reorder=0.05,alpudeath@50us\")")
		fs.Int64Var(&c.seed, "seed", 1, "seed of the fault streams and traffic plans (same seed => byte-identical run)")
		fs.IntVar(&c.flightSize, "flightsize", 0, "flight-recorder ring capacity in events per world (0 = default when a watchdog is armed; < 0 disables the recorder)")
	}
	return c
}

// Validate checks the run flags and builds Plan from them. The error
// names the flag that failed.
func (c *CLI) Validate() error {
	if c.par < 0 {
		return fmt.Errorf("-par %d: partition count must not be negative", c.par)
	}
	fm, err := network.ParseFaults(c.faultSpec, c.seed)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	c.Plan = bench.Plan{
		Jobs: sweep.Jobs(c.jobs), Seed: c.seed, Faults: fm,
		World: mpi.Config{Partitions: c.par, FlightEvents: c.flightSize},
	}
	return nil
}

// FaultSpec is the -faults value as given.
func (c *CLI) FaultSpec() string { return c.faultSpec }

// Start opens what the parsed flags ask for: the CPU profile, the -log
// file and the -serve plane, whose /metrics then folds in every world
// the experiments drain (bench.WorldObserver). The error names the flag
// that failed.
func (c *CLI) Start() error {
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		c.cpuFile = f
	}
	switch c.logPath {
	case "":
	case "-":
		c.Log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	default:
		f, err := os.Create(c.logPath)
		if err != nil {
			return fmt.Errorf("-log: %w", err)
		}
		c.logFile = f
		c.Log = slog.New(slog.NewTextHandler(f, nil))
	}
	c.Plan.World.Log = c.Log
	if c.serveAddr != "" {
		c.Progress = sweep.NewProgress()
		sweep.SetProgress(c.Progress)
		c.Server = NewServer(Options{Progress: c.Progress, Log: c.Log})
		bench.WorldObserver = func(w *mpi.World) { c.Server.MergeSnapshot(w.TelemetrySnapshot()) }
		addr, err := c.Server.Start(c.serveAddr)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: observability plane on http://%s\n", c.name, addr)
	}
	return nil
}

// Want reports whether any file sink in s was given a path.
func (c *CLI) Want(s FlagGroup) bool {
	for i, f := range fileSinks {
		if s&f.sink != 0 && c.paths[i] != "" {
			return true
		}
	}
	return false
}

// WantReport reports whether the run report has a consumer: -report,
// -timeseries, or the /report and /timeseries endpoints of -serve.
func (c *CLI) WantReport() bool {
	return c.Want(FlagReport|FlagTimeseries) || c.Server != nil
}

// Emit writes the file sink s through write when its flag was given a
// path; otherwise it does nothing. The error names the flag.
func (c *CLI) Emit(s FlagGroup, write func(w io.Writer) error) error {
	for i, f := range fileSinks {
		if s != f.sink || c.paths[i] == "" {
			continue
		}
		if err := writeOutput(c.paths[i], write); err != nil {
			return fmt.Errorf("-%s: %w", f.name, err)
		}
	}
	return nil
}

// PublishReport renders rep once and fans it out to every consumer:
// the -report HTML file, the -timeseries JSON file, and the server's
// /report and /timeseries endpoints.
func (c *CLI) PublishReport(rep *Report) error {
	html, ts := rep.HTML(), rep.TimeseriesJSON()
	for _, out := range []struct {
		sink FlagGroup
		doc  []byte
	}{{FlagReport, html}, {FlagTimeseries, ts}} {
		err := c.Emit(out.sink, func(w io.Writer) error {
			_, err := w.Write(out.doc)
			return err
		})
		if err != nil {
			return err
		}
	}
	if c.Server != nil {
		c.Server.SetReport(html, ts)
	}
	return nil
}

// Check exits the process with status code after printing err, prefixed
// with the cmd name; a nil err does nothing.
func (c *CLI) Check(err error, code int) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		os.Exit(code)
	}
}

// Close ends the run: with -serve it keeps the plane up for -linger,
// announcing "<what> done", and shuts it down; then it closes the -log
// file, finishes the CPU profile and writes the allocation profile.
func (c *CLI) Close(what string) {
	if c.Server != nil {
		if c.linger > 0 {
			fmt.Fprintf(os.Stderr, "%s: %s done; serving for another %v\n", c.name, what, c.linger)
			time.Sleep(c.linger)
		}
		c.Server.Close()
	}
	if c.logFile != nil {
		c.logFile.Close()
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
	}
	if c.memProfile != "" {
		runtime.GC() // flush recently-freed objects out of the profile
		c.Check(writeOutput(c.memProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}), 1)
	}
}

// writeOutput writes to path via write, with "-" meaning stdout.
func writeOutput(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
