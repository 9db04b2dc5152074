package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"alpusim/internal/sim"
	"alpusim/internal/sweep"
	"alpusim/internal/telemetry"
)

func startServer(t *testing.T, o Options) (*Server, string) {
	t.Helper()
	srv := NewServer(o)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestServerEndpoints(t *testing.T) {
	progress := sweep.NewProgress()
	srv, base := startServer(t, Options{Progress: progress})

	body, resp := get(t, base+"/healthz")
	var health struct {
		Status     string `json:"status"`
		Goroutines int    `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Goroutines < 1 {
		t.Errorf("/healthz = %+v", health)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz content-type %q", ct)
	}

	// Merge a world snapshot; it must appear on /metrics alongside the
	// host runtime gauges.
	r := telemetry.NewRegistry()
	r.Counter("nic0/rel/retransmits").Add(7)
	srv.MergeSnapshot(r.Snapshot())
	body, resp = get(t, base+"/metrics")
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"alpusim_nic0_rel_retransmits 7",
		"# TYPE alpusim_goroutines gauge",
		"alpusim_uptime_seconds",
		"alpusim_sweep_points_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Merging again sums — the commutative fold.
	srv.MergeSnapshot(r.Snapshot())
	body, _ = get(t, base+"/metrics")
	if !strings.Contains(body, "alpusim_nic0_rel_retransmits 14") {
		t.Errorf("second merge did not sum:\n%s", body)
	}

	// SetSnapshot replaces wholesale.
	srv.SetSnapshot(r.Snapshot())
	body, _ = get(t, base+"/metrics")
	if !strings.Contains(body, "alpusim_nic0_rel_retransmits 7") {
		t.Errorf("SetSnapshot did not replace:\n%s", body)
	}

	body, _ = get(t, base+"/")
	if !strings.Contains(body, "/progress") {
		t.Errorf("index page missing endpoint listing:\n%s", body)
	}
	if _, resp := get(t, base+"/nonexistent"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path returned %d", resp.StatusCode)
	}
}

func TestServerProgress(t *testing.T) {
	progress := sweep.NewProgress()
	progress.SetLabel("unit-test")
	sweep.SetProgress(progress)
	defer sweep.SetProgress(nil)

	_, base := startServer(t, Options{Progress: progress})

	read := func() (doc struct {
		PointsTotal int64   `json:"points_total"`
		PointsDone  int64   `json:"points_done"`
		EtaSec      float64 `json:"eta_sec"`
		Sweeps      []struct {
			Label string `json:"label"`
			Total int    `json:"total"`
			Done  int64  `json:"done"`
		} `json:"sweeps"`
	}) {
		body, resp := get(t, base+"/progress")
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("/progress content-type %q", ct)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/progress not JSON: %v\n%s", err, body)
		}
		return doc
	}

	before := read()
	if before.PointsTotal != 0 || before.EtaSec != -1 {
		t.Errorf("idle progress = %+v, want zero points and ETA -1", before)
	}

	sweep.Map(2, 5, func(i int) int { return i * i })
	after := read()
	if after.PointsTotal != 5 || after.PointsDone != 5 {
		t.Errorf("after sweep: %+v, want 5/5", after)
	}
	if after.PointsDone < before.PointsDone || after.PointsTotal < before.PointsTotal {
		t.Error("progress counters went backwards")
	}
	if len(after.Sweeps) != 1 || after.Sweeps[0].Label != "unit-test" ||
		after.Sweeps[0].Done != 5 || after.Sweeps[0].Total != 5 {
		t.Errorf("sweep entry = %+v", after.Sweeps)
	}
	if after.EtaSec != 0 {
		t.Errorf("finished sweep ETA = %v, want 0", after.EtaSec)
	}
}

func TestServerProgressSSE(t *testing.T) {
	_, base := startServer(t, Options{Progress: sweep.NewProgress()})
	resp, err := http.Get(base + "/progress?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content-type %q", ct)
	}
	// The first event is written immediately; read one frame and bail.
	buf := make([]byte, 4096)
	n, err := resp.Body.Read(buf)
	if err != nil && n == 0 {
		t.Fatal(err)
	}
	frame := string(buf[:n])
	if !strings.HasPrefix(frame, "event: progress\ndata: ") {
		t.Errorf("SSE frame = %q", frame)
	}
}

// A server with no progress tracker still serves /progress (the zero
// snapshot) rather than panicking — binaries pass Options{} freely.
func TestServerNilProgress(t *testing.T) {
	_, base := startServer(t, Options{})
	body, _ := get(t, base+"/progress")
	if !strings.Contains(body, `"points_total": 0`) {
		t.Errorf("nil-progress /progress = %s", body)
	}
}

// /critpath serves the causal reports of finished worlds, in arrival
// order, as a stable JSON document.
func TestServerCritPath(t *testing.T) {
	srv, base := startServer(t, Options{})

	body, resp := get(t, base+"/critpath")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/critpath content-type %q", ct)
	}
	var doc struct {
		Worlds []struct {
			Label  string                 `json:"label"`
			Report telemetry.CausalReport `json:"report"`
		} `json:"worlds"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/critpath not JSON: %v\n%s", err, body)
	}
	if len(doc.Worlds) != 0 {
		t.Fatalf("empty server reported %d worlds", len(doc.Worlds))
	}

	c := telemetry.NewCausal()
	for s := telemetry.Stamp(0); s < 8; s++ {
		c.Stamp(1, s, 10*sim.Time(s))
	}
	rep, ok := c.Analyze(1)
	if !ok {
		t.Fatal("no report from stamped chain")
	}
	srv.AddCritPath("baseline q=8", rep)
	srv.AddCritPath("alpu-128 q=8", rep)

	body, _ = get(t, base+"/critpath")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/critpath not JSON after AddCritPath: %v", err)
	}
	if len(doc.Worlds) != 2 || doc.Worlds[0].Label != "baseline q=8" {
		t.Fatalf("worlds = %+v, want 2 in the order added", doc.Worlds)
	}
	if doc.Worlds[0].Report.CriticalPath != rep.CriticalPath {
		t.Errorf("served critical path %v, want %v",
			doc.Worlds[0].Report.CriticalPath, rep.CriticalPath)
	}
	if !strings.Contains(body, `"permille"`) {
		t.Error("served report missing blame permille field")
	}
}
