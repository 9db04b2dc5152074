package mpi

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"alpusim/internal/network"
)

var update = flag.Bool("update", false, "rewrite the goldens in testdata")

// dumpLog counts the flight dumps a world reports through its logger.
type dumpLog struct{ dumps []string }

func (l *dumpLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *dumpLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "flight recorder dumped" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "reason" {
				l.dumps = append(l.dumps, a.Value.String())
			}
			return true
		})
	}
	return nil
}
func (l *dumpLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *dumpLog) WithGroup(string) slog.Handler      { return l }

// TestProtocolErrorFlightDump drives a device-fault world past its first
// ALPU strike, a recoverable protocol error, with a flight dump path set.
// A serial world dumps inside the failing event; a partitioned one at the
// next barrier. Either way exactly one dump is written, whatever the
// strikes that follow, and both dumps' bytes are pinned in
// testdata/protocol-error-dump.golden (go test ./internal/mpi -update
// rewrites it).
func TestProtocolErrorFlightDump(t *testing.T) {
	const ranks = 4
	plan := buildSoakPlan(rand.New(rand.NewSource(17)), ranks, 24)
	var out bytes.Buffer
	for _, parts := range []int{0, 2} {
		log := &dumpLog{}
		cfg := devChaosCfg(ranks, 64)
		cfg.Partitions = parts
		cfg.Faults = &network.FaultModel{Seed: 42, ALPUResultDropProb: 0.05}
		cfg.FlightEvents = 24
		cfg.FlightDumpPath = filepath.Join(t.TempDir(), "flight.json")
		cfg.Log = slog.New(log)
		_, w := soakMatchDigest(t, fmt.Sprintf("par%d", parts), cfg, plan, ranks)
		if s := w.TelemetrySnapshot().Sum("nic_failover/strikes"); s < 2 {
			t.Fatalf("par%d: %d strikes, want at least 2 so a second dump could be attempted", parts, s)
		}
		if len(log.dumps) != 1 || log.dumps[0] != "protocol-error" {
			t.Errorf("par%d: flight dumps %q, want exactly one protocol-error dump", parts, log.dumps)
		}
		data, err := os.ReadFile(cfg.FlightDumpPath)
		if err != nil {
			t.Fatalf("par%d: flight dump not written: %v", parts, err)
		}
		fmt.Fprintf(&out, "== Partitions %d ==\n%s\n", parts, data)
	}
	path := filepath.Join("testdata", "protocol-error-dump.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/mpi -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gl, wl := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s line %d differs:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
