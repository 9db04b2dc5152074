package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Progress, when set, backs /progress and the sweep gauges on
	// /metrics.
	Progress *sweep.Progress
	// Log receives server diagnostics (never written to stdout, which
	// belongs to experiment output).
	Log *slog.Logger
}

// Server is the live observability HTTP endpoint. It only ever reads
// frozen snapshots and atomic counters, so it cannot perturb a running
// simulation.
type Server struct {
	opts  Options
	start time.Time

	mu         sync.Mutex
	merged     telemetry.Snapshot
	critpath   []namedCritPath
	reportHTML []byte
	tsJSON     []byte

	ln  net.Listener
	srv *http.Server
}

// namedCritPath is one world's causal analysis as served on /critpath.
type namedCritPath struct {
	Label  string                 `json:"label"`
	Report telemetry.CausalReport `json:"report"`
}

// NewServer returns an unstarted server.
func NewServer(o Options) *Server {
	return &Server{opts: o, start: time.Now()}
}

// MergeSnapshot folds a finished world's snapshot into the served
// totals (counters sum, gauges max, histograms merge — the commutative
// fold, so the served state is independent of worker scheduling). Safe
// from any goroutine.
func (s *Server) MergeSnapshot(sn telemetry.Snapshot) {
	s.mu.Lock()
	s.merged.Merge(sn)
	s.mu.Unlock()
}

// SetSnapshot replaces the served snapshot wholesale — the fit for
// tools that re-harvest one long-lived world (merging those snapshots
// would double-count the idempotent harvest).
func (s *Server) SetSnapshot(sn telemetry.Snapshot) {
	s.mu.Lock()
	s.merged = sn
	s.mu.Unlock()
}

// AddCritPath appends a finished world's causal critical-path report to
// the read-only /critpath endpoint, under a label naming the world
// (e.g. "alpu-128 q=96"). /critpath lists the reports in the order they
// were added, so a caller that wants bytes independent of worker
// scheduling adds them after its sweep, in enumeration order. Safe from
// any goroutine.
func (s *Server) AddCritPath(label string, rep telemetry.CausalReport) {
	s.mu.Lock()
	s.critpath = append(s.critpath, namedCritPath{Label: label, Report: rep})
	s.mu.Unlock()
}

// SetReport publishes a finished run's rendered report: the /report
// HTML document and the /timeseries JSON dump. Until it is called both
// endpoints answer 503, the signal that the run is still in flight.
// Safe from any goroutine.
func (s *Server) SetReport(html, timeseries []byte) {
	s.mu.Lock()
	s.reportHTML = html
	s.tsJSON = timeseries
	s.mu.Unlock()
}

// Start listens on addr (":0" picks a free port) and serves in the
// background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/critpath", s.handleCritPath)
	mux.HandleFunc("/report", s.handleReport)
	mux.HandleFunc("/timeseries", s.handleTimeseries)
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			if s.opts.Log != nil {
				s.opts.Log.Error("obs server exited", "err", err)
			}
		}
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, letting in-flight scrapes finish
// briefly.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "alpusim observability plane\n\n"+
		"  /healthz   liveness (JSON)\n"+
		"  /metrics   Prometheus text exposition\n"+
		"  /progress  sweep completion (JSON; ?stream=1 or Accept: text/event-stream for SSE)\n"+
		"  /critpath  causal critical-path reports of finished worlds (JSON)\n"+
		"  /report    self-contained HTML run report (503 until the run finishes)\n"+
		"  /timeseries  simulated-time series dump (JSON; 503 until the run finishes)\n")
}

func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	doc := s.reportHTML
	s.mu.Unlock()
	if doc == nil {
		http.Error(w, "report not ready: run still in flight", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(doc)
}

func (s *Server) handleTimeseries(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	doc := s.tsJSON
	s.mu.Unlock()
	if doc == nil {
		http.Error(w, "time series not ready: run still in flight", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *Server) handleCritPath(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	reports := make([]namedCritPath, len(s.critpath))
	copy(reports, s.critpath)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	doc := struct {
		Worlds []namedCritPath `json:"worlds"`
	}{Worlds: reports}
	if doc.Worlds == nil {
		doc.Worlds = []namedCritPath{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	doc := struct {
		Status     string  `json:"status"`
		UptimeSec  float64 `json:"uptime_sec"`
		Goroutines int     `json:"goroutines"`
	}{"ok", time.Since(s.start).Seconds(), runtime.NumGoroutine()}
	json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	// Render under the lock: Merge mutates the maps WriteProm reads.
	s.mu.Lock()
	err := WriteProm(&buf, s.merged)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeHostMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// writeHostMetrics appends the host-side runtime gauges: scheduler and
// heap state, GC cycles, process uptime, and the sweep pool's live
// totals including cumulative and mean per-world wall time.
func (s *Server) writeHostMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	family := func(name, typ string, format string, v any) {
		fmt.Fprintf(w, "# TYPE %s %s\n%s "+format+"\n", name, typ, name, v)
	}
	family("alpusim_goroutines", "gauge", "%d", runtime.NumGoroutine())
	family("alpusim_heap_alloc_bytes", "gauge", "%d", ms.HeapAlloc)
	family("alpusim_heap_sys_bytes", "gauge", "%d", ms.HeapSys)
	family("alpusim_gc_cycles_total", "counter", "%d", ms.NumGC)
	family("alpusim_uptime_seconds", "gauge", "%.3f", time.Since(s.start).Seconds())
	if p := s.opts.Progress; p != nil {
		ps := p.Snapshot()
		family("alpusim_sweeps_total", "counter", "%d", len(ps.Sweeps))
		family("alpusim_sweep_points_total", "gauge", "%d", ps.PointsTotal)
		family("alpusim_sweep_points_done", "gauge", "%d", ps.PointsDone)
		family("alpusim_world_wall_seconds_total", "counter", "%.6f", float64(ps.PointWallNs)/1e9)
		if ps.PointsDone > 0 {
			family("alpusim_world_wall_mean_seconds", "gauge", "%.6f",
				float64(ps.PointWallNs)/1e9/float64(ps.PointsDone))
		}
	}
}

// progressDoc is the /progress JSON shape: the sweep tracker snapshot
// plus derived operator-facing numbers (elapsed, completion rate, ETA).
type progressDoc struct {
	sweep.ProgressSnapshot
	ElapsedSec   float64 `json:"elapsed_sec"`
	WorldWallSec float64 `json:"world_wall_sec"`
	// EtaSec estimates the remaining wall time for the points registered
	// so far (-1 when unknowable: nothing done yet). Sweeps register as
	// experiments reach them, so the estimate sharpens over a run.
	EtaSec float64 `json:"eta_sec"`
}

func (s *Server) progressSnapshot() progressDoc {
	doc := progressDoc{
		ProgressSnapshot: s.opts.Progress.Snapshot(), // nil-safe: zero snapshot
		ElapsedSec:       time.Since(s.start).Seconds(),
		EtaSec:           -1,
	}
	doc.WorldWallSec = float64(doc.PointWallNs) / 1e9
	if doc.PointsDone > 0 && doc.ElapsedSec > 0 {
		rate := float64(doc.PointsDone) / doc.ElapsedSec
		doc.EtaSec = float64(doc.PointsTotal-doc.PointsDone) / rate
	}
	return doc
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamProgress(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.progressSnapshot())
}

// streamProgress serves /progress as an SSE stream: one `progress`
// event every 500 ms until the client disconnects.
func (s *Server) streamProgress(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		data, err := json.Marshal(s.progressSnapshot())
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}
