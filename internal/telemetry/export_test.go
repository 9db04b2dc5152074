package telemetry

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"alpusim/internal/sim"
)

// oddNames exercise every escaping rule of the three encoders: quotes,
// backslashes, HTML-escaped characters, control bytes, non-ASCII,
// U+2028, invalid UTF-8, the stack-key separator and the empty name.
var oddNames = []string{
	`say "hi"`, `back\slash`, "a<b", "c>d", "e&f", "tab\tnew\nline\x00\x1f", "del\x7f",
	"größe µs", "日本", "sep\u2028par\u2029", "bad\xffutf8\xc3", "a;b", "",
}

// everyKind records one event of every ph kind, with track names.
func everyKind(t *Tracer) {
	t.NameProcess(0, "nic0")
	t.NameThread(0, 1, "firmware")
	t.NameProcess(999, "sim-engine")
	t.Span(0, 1, "fw", "outer", 0, 5*sim.Microsecond)
	t.Span(0, 1, "alpu", "search", 1_234_567, 2_000_000)
	t.Instant(0, 3, "rel", "retransmit", 3*sim.Microsecond)
	t.Count(999, 0, "pending", 4*sim.Microsecond+1, -42)
	t.FlowStart(0, 1, "mpi", "msg", 2*sim.Microsecond, math.MaxUint64)
	t.FlowEnd(1, 0, "mpi", "msg", 7*sim.Microsecond+999_999, math.MaxUint64)
}

// benchTracer is a recorders-sized world trace: about 600 events on two
// NICs and the engine track, mostly nested firmware spans, with the
// instants, counters and flow pairs of a traced Fig. 5 cell.
func benchTracer() *Tracer {
	rng := rand.New(rand.NewSource(1))
	t := NewTracer()
	t.NameProcess(999, "sim-engine")
	phases := []string{"req recv", "req send", "pkt EAGER", "ack", "post"}
	for nic := 0; nic < 2; nic++ {
		t.NameProcess(nic, "nic"+string(rune('0'+nic)))
		t.NameThread(nic, 0, "firmware")
		t.NameThread(nic, 1, "posted-alpu")
		t.NameThread(nic, 3, "reliability")
	}
	at := sim.Time(0)
	for len(t.events) < 600 {
		nic := rng.Intn(2)
		d := sim.Time(150_000 + rng.Intn(150_000))
		switch k := rng.Intn(10); {
		case k < 5:
			t.Span(nic, 0, "fw", phases[rng.Intn(len(phases))], at, at+d)
			if k < 2 {
				t.Span(nic, 0, "alpu", "search", at+d/4, at+d/2)
			}
		case k < 7:
			t.Count(999, 0, "pending", at, int64(rng.Intn(12)))
			t.Count(999, 0, "executed", at, int64(len(t.events)))
		case k < 8:
			t.Instant(nic, 0, "mpi", "complete", at+d)
		default:
			id := uint64(rng.Int63())
			t.FlowStart(nic, 0, "mpi", "msg", at, id)
			t.FlowEnd(1-nic, 0, "mpi", "msg", at+d, id)
		}
		at += d / 2
	}
	return t
}

// benchSampler holds a recorders world's series: six per NIC, a few
// hundred pushes each, so decimation has halved them once.
func benchSampler() *Sampler {
	sa := NewSampler(0, 0)
	for nic := 0; nic < 2; nic++ {
		for _, q := range []string{"hostq/depth", "posted/depth", "posted/match_lat64_p99", "rel/window", "rxq/depth", "unexp/depth"} {
			sa.Probe("nic"+string(rune('0'+nic))+"/"+q, nil)
		}
	}
	for i := 0; i < 300; i++ {
		for _, p := range sa.probes {
			p.s.Push(int64(i * len(p.s.name) % 97))
		}
	}
	return sa
}

// checkTrace compares WriteTrace and WriteSimProfile (gunzipped, then
// compressed) with the reference encoders.
func checkTrace(t *testing.T, tracers ...*Tracer) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteTrace(&got, tracers...); err != nil {
		t.Fatal(err)
	}
	if err := refWriteTrace(&want, tracers...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteTrace differs from the reference:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	got.Reset()
	want.Reset()
	if err := WriteSimProfile(&got, tracers...); err != nil {
		t.Fatal(err)
	}
	if err := refWriteSimProfile(&want, tracers...); err != nil {
		t.Fatal(err)
	}
	if g, w := gunzip(t, got.Bytes()), gunzip(t, want.Bytes()); !bytes.Equal(g, w) {
		t.Fatalf("WriteSimProfile differs from the reference:\n got %q\nwant %q", g, w)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteSimProfile's gzip stream differs from the reference's")
	}
}

// checkSampler compares Sampler.WriteJSON with the reference encoder.
func checkSampler(t *testing.T, sa *Sampler) {
	t.Helper()
	var got, want bytes.Buffer
	if err := sa.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := refSamplerWriteJSON(sa, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Sampler.WriteJSON differs from the reference:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExportersMatchReference pins the append encoders to the fmt and
// encoding/json encoders they replaced, byte for byte.
func TestExportersMatchReference(t *testing.T) {
	traces := []struct {
		name  string
		build func() []*Tracer
	}{
		{"none", func() []*Tracer { return nil }},
		{"nil", func() []*Tracer { return []*Tracer{nil} }},
		{"empty", func() []*Tracer { return []*Tracer{NewTracer()} }},
		{"every-kind", func() []*Tracer {
			tr := NewTracer()
			everyKind(tr)
			return []*Tracer{tr}
		}},
		{"odd-names", func() []*Tracer {
			tr := NewTracer()
			for i, n := range oddNames {
				tr.NameProcess(i, n)
				tr.NameThread(i, i, n)
				tr.Span(i, i, n, n, sim.Time(i)*1000, sim.Time(i)*1000+500)
				tr.Span(i, i, "c", n, sim.Time(i)*1000+100, sim.Time(i)*1000+200)
				tr.Instant(i, 0, n, n, sim.Time(i))
				tr.Count(i, 1, n, sim.Time(i), int64(i))
				tr.FlowStart(i, 0, n, n, sim.Time(i), uint64(i))
				tr.FlowEnd(i, 0, n, n, sim.Time(i), uint64(i))
			}
			return []*Tracer{tr}
		}},
		{"negative-and-zero-times", func() []*Tracer {
			tr := NewTracer()
			tr.Span(0, 0, "c", "neg", -5*sim.Microsecond, -sim.Microsecond)
			tr.Span(0, 0, "c", "straddle", -1, 1)
			tr.Span(0, 0, "c", "zero", 0, 0)
			tr.Span(0, 0, "c", "backwards", 100, 50)
			tr.Instant(0, 0, "c", "neg", math.MinInt64)
			tr.Count(0, 0, "neg", -1, math.MinInt64)
			tr.Count(0, 0, "max", math.MaxInt64, math.MaxInt64)
			tr.FlowStart(0, 0, "c", "neg", -999_999, 0)
			return []*Tracer{tr}
		}},
		{"stack-key-order-and-collision", func() []*Tracer {
			tr := NewTracer()
			// ["a", "z"] sorts after ["a!"] by joined key, before it
			// frame by frame; ["a;b"] and ["a", "b"] join alike.
			tr.Span(0, 0, "c", "a!", 0, 10)
			tr.Span(0, 0, "c", "a", 20, 40)
			tr.Span(0, 0, "c", "z", 25, 30)
			tr.Span(0, 0, "c", "b", 32, 35)
			tr.Span(0, 0, "c", "a;b", 50, 60)
			tr.Span(0, 0, "c", "a", 70, 90)
			tr.Span(0, 0, "c", "b", 75, 80)
			// Equal starts: the longer span encloses the shorter one
			// whichever was recorded first.
			tr.Span(0, 0, "c", "inner", 100, 120)
			tr.Span(0, 0, "c", "outer", 100, 150)
			return []*Tracer{tr}
		}},
		{"flight-ring-wrapped", func() []*Tracer {
			tr := NewFlightRecorder(16)
			everyKind(tr)
			for i := 0; i < 50; i++ {
				tr.Span(0, i%3, "fw", "op", sim.Time(i)*100, sim.Time(i)*100+250)
				tr.Instant(1, 0, "c", "tick", sim.Time(i)*100)
			}
			if tr.Dropped() == 0 {
				t.Fatal("flight ring did not wrap")
			}
			return []*Tracer{tr}
		}},
		{"several-tracers", func() []*Tracer {
			a, b, c := NewTracer(), NewTracer(), NewFlightRecorder(4)
			everyKind(a)
			everyKind(b)
			for i := 0; i < 9; i++ {
				c.Span(2, 1, "fw", "op", sim.Time(i), sim.Time(i+3))
			}
			return []*Tracer{a, nil, b, c}
		}},
		{"recorders-sized", func() []*Tracer { return []*Tracer{benchTracer()} }},
		{"records-beyond-the-buffer", func() []*Tracer {
			tr := benchTracer()
			long := strings.Repeat(`"x\`, 3000)
			tr.NameThread(0, 9, long)
			tr.Span(0, 9, long, long, 0, 1)
			tr.Instant(0, 9, "c", long, 2)
			return []*Tracer{tr}
		}},
	}
	for _, tc := range traces {
		t.Run("trace/"+tc.name, func(t *testing.T) { checkTrace(t, tc.build()...) })
	}

	samplers := []struct {
		name  string
		build func() *Sampler
	}{
		{"nil", func() *Sampler { return nil }},
		{"empty", func() *Sampler { return NewSampler(0, 0) }},
		{"no-samples", func() *Sampler {
			sa := NewSampler(7, 8)
			sa.Probe("idle", nil)
			return sa
		}},
		{"odd-names", func() *Sampler {
			sa := NewSampler(sim.Microsecond, 8)
			for i, n := range oddNames {
				sa.Probe(n, nil)
				for j := 0; j < i*3; j++ {
					sa.series[n].Push(int64(j-i) * math.MaxInt64 / 40)
				}
			}
			return sa
		}},
		{"recorders-sized", benchSampler},
	}
	for _, tc := range samplers {
		t.Run("series/"+tc.name, func(t *testing.T) { checkSampler(t, tc.build()) })
	}
}

// TestExportersAllocateNothingPerEvent: the allocations of an export do
// not grow with the number of events, spans or samples.
func TestExportersAllocateNothingPerEvent(t *testing.T) {
	trace := func(n int) *Tracer {
		tr := NewTracer()
		everyKind(tr)
		for i := 0; i < n; i++ {
			at := sim.Time(i) * sim.Microsecond
			tr.Span(0, 1, "fw", `req "recv"`, at, at+500_000)
			tr.Span(0, 1, "alpu", "search", at+100_000, at+200_000)
			tr.Instant(0, 1, "mpi", "complete", at)
			tr.Count(999, 0, "pending", at, int64(i))
			tr.FlowStart(0, 1, "mpi", "msg", at, uint64(i))
			tr.FlowEnd(1, 0, "mpi", "msg", at, uint64(i))
		}
		return tr
	}
	series := func(n int) *Sampler {
		sa := NewSampler(0, 1<<12)
		sa.Probe("nic0/posted/depth", nil)
		sa.Probe("nic1/<odd>", nil)
		for i := 0; i < n; i++ {
			for _, p := range sa.probes {
				p.s.Push(int64(i))
			}
		}
		return sa
	}
	small, large := trace(100), trace(800)
	ssmall, slarge := series(100), series(800)
	for _, c := range []struct {
		name         string
		small, large func()
	}{
		{"WriteTrace", func() { WriteTrace(io.Discard, small) }, func() { WriteTrace(io.Discard, large) }},
		{"WriteSimProfile", func() { WriteSimProfile(io.Discard, small) }, func() { WriteSimProfile(io.Discard, large) }},
		{"Sampler.WriteJSON", func() { ssmall.WriteJSON(io.Discard) }, func() { slarge.WriteJSON(io.Discard) }},
	} {
		if a, b := testing.AllocsPerRun(5, c.small), testing.AllocsPerRun(5, c.large); b > a {
			t.Errorf("%s: %v allocs at 100 events, %v at 800", c.name, a, b)
		}
	}
}

// FuzzWriteTrace drives the three exporters with tracers and a sampler
// built from arbitrary bytes and names, and compares each with its
// reference encoder. Each 8-byte record of ops is one call: op, pid,
// tid, a signed 16-bit time, a signed span length or counter value, and
// a name selector; the seed corpus is in testdata/fuzz/FuzzWriteTrace.
func FuzzWriteTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, name, cat string, ring uint8) {
		names := []string{name, cat, name + ";" + cat, "n"}
		cur := NewTracer()
		if ring%4 == 1 {
			cur = NewFlightRecorder(int(ring>>2)%8 + 1)
		}
		tracers := []*Tracer{cur}
		sa := NewSampler(sim.Time(ring)+1, 8)
		for len(ops) >= 8 {
			op, pid, tid := ops[0]%9, int(ops[1]%4), int(ops[2]%4)
			at := sim.Time(int16(binary.LittleEndian.Uint16(ops[3:]))) * 997
			v := int64(int16(binary.LittleEndian.Uint16(ops[5:])))
			n := names[ops[7]%4]
			ops = ops[8:]
			switch op {
			case 0:
				cur.Span(pid, tid, cat, n, at, at+sim.Time(v)*131)
			case 1:
				cur.Instant(pid, tid, cat, n, at)
			case 2:
				cur.Count(pid, tid, n, at, v*v*v)
			case 3:
				cur.FlowStart(pid, tid, cat, n, at, uint64(v))
			case 4:
				cur.FlowEnd(pid, tid, cat, n, at, uint64(v))
			case 5:
				cur.NameProcess(pid, n)
			case 6:
				cur.NameThread(pid, tid, n)
			case 7:
				if len(tracers) < 4 {
					cur = NewTracer()
					tracers = append(tracers, nil, cur)
				}
			case 8:
				if _, ok := sa.series[n]; !ok {
					sa.Probe(n, nil)
				}
				for i := 0; i < int(uint16(v)%40); i++ {
					sa.series[n].Push(v * int64(i))
				}
			}
		}
		checkTrace(t, tracers...)
		checkSampler(t, sa)
	})
}

func BenchmarkWriteTrace(b *testing.B) {
	tr := benchTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteTrace(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSimProfile(b *testing.B) {
	tr := benchTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteSimProfile(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplerWriteJSON(b *testing.B) {
	sa := benchSampler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sa.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
