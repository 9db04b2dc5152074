package telemetry

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"alpusim/internal/sim"
)

// The downsampling property: a decimated series must equal the
// decimation of the full push sequence — sample j holds push j*every —
// at any capacity and any run length, with the stride exactly as small
// as the capacity allows.
func TestSeriesDecimationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{8, 16, 64, 256} {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000, 4097, 20000} {
			s := &Series{name: "x", cap: capacity, every: 1}
			full := make([]int64, n)
			for i := range full {
				full[i] = int64(rng.Intn(1000))
				s.Push(full[i])
			}
			every := s.Every()
			if every&(every-1) != 0 {
				t.Fatalf("cap=%d n=%d: stride %d is not a power of two", capacity, n, every)
			}
			vals := s.Samples()
			if len(vals) > capacity {
				t.Fatalf("cap=%d n=%d: retained %d > capacity", capacity, n, len(vals))
			}
			wantLen := 0
			if n > 0 {
				wantLen = (n-1)/int(every) + 1
			}
			if len(vals) != wantLen {
				t.Fatalf("cap=%d n=%d every=%d: retained %d, want %d", capacity, n, every, len(vals), wantLen)
			}
			for j, v := range vals {
				if want := full[uint64(j)*every]; v != want {
					t.Fatalf("cap=%d n=%d every=%d: sample %d = %d, want full[%d] = %d",
						capacity, n, every, j, v, uint64(j)*every, want)
				}
			}
			// Minimality: halving the stride would overflow the capacity.
			if every > 1 && (n-1)/(int(every)/2)+1 <= capacity {
				t.Fatalf("cap=%d n=%d: stride %d not minimal", capacity, n, every)
			}
		}
	}
}

// Decimation is prefix-consistent: two series fed the same stream, one
// stopping early, agree on every sample they both retain once strides
// are accounted for — the property that makes waterlines comparable
// across runs of different lengths.
func TestSeriesPrefixConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := make([]int64, 5000)
	for i := range full {
		full[i] = int64(rng.Intn(100))
	}
	long := &Series{name: "x", cap: 32, every: 1}
	short := &Series{name: "x", cap: 32, every: 1}
	for i, v := range full {
		long.Push(v)
		if i < 1200 {
			short.Push(v)
		}
	}
	ratio := long.Every() / short.Every()
	if ratio == 0 {
		t.Fatalf("long stride %d < short stride %d", long.Every(), short.Every())
	}
	for j, v := range long.Samples() {
		k := uint64(j) * ratio
		if k >= uint64(len(short.Samples())) {
			break
		}
		if short.Samples()[k] != v {
			t.Fatalf("sample mismatch at long[%d]/short[%d]: %d != %d", j, k, v, short.Samples()[k])
		}
	}
}

// A sampler attached to an engine ticks at exact interval multiples,
// pads to the canonical count at Finalize, and renders deterministic
// JSON.
func TestSamplerAttachFinalize(t *testing.T) {
	eng := sim.NewEngine()
	depth := 0
	sa := NewSampler(10, 8)
	sa.Probe("q/depth", func() int64 { return int64(depth) })
	sa.Attach(eng)
	eng.At(5, func() { depth = 3 })
	eng.At(25, func() { depth = 7 })
	eng.Run()
	// Model events at 5 and 25: ticks at 10 (depth 3), 20 (3), 30 (7);
	// at 30 Alive == 0, chain ends. Canonical count for tEnd=25 is
	// floor(25/10)+1 = 3 — already reached, Finalize pads nothing.
	sa.Finalize(eng.LastModel())
	all := sa.All()
	if len(all) != 1 || all[0].Name() != "q/depth" {
		t.Fatalf("series = %v", all)
	}
	got := all[0].Samples()
	want := []int64{3, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples %v, want %v", got, want)
		}
	}

	// A shard that stopped early pads with probe reads up to the same
	// canonical count.
	shard := sa.Shard()
	frozen := int64(42)
	shard.Probe("other/depth", func() int64 { return frozen })
	shard.series["other/depth"].Push(42) // one natural tick
	shard.Finalize(25)
	if n := shard.series["other/depth"].Pushes(); n != 3 {
		t.Fatalf("padded pushes = %d, want 3", n)
	}

	var buf bytes.Buffer
	if err := sa.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"interval_ps": 10`, `"name": "q/depth"`, `"samples"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := sa.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("WriteJSON not deterministic across calls")
	}
}

// Publish surfaces each series' last and peak values as gauges under
// ts/..., the families the Prometheus endpoint renders.
func TestSamplerPublish(t *testing.T) {
	sa := NewSampler(10, 8)
	sa.Probe("nic0/posted/depth", func() int64 { return 0 })
	s := sa.series["nic0/posted/depth"]
	for _, v := range []int64{1, 9, 4} {
		s.Push(v)
	}
	reg := NewRegistry()
	sa.Publish(reg)
	snap := reg.Snapshot()
	if got := snap.Gauges["ts/nic0/posted/depth/last"]; got != 4 {
		t.Errorf("last gauge = %d, want 4", got)
	}
	if got := snap.Gauges["ts/nic0/posted/depth/peak"]; got != 9 {
		t.Errorf("peak gauge = %d, want 9", got)
	}
}

// Nil samplers and series are inert, like every other recorder here.
func TestSamplerNilSafe(t *testing.T) {
	var sa *Sampler
	sa.Probe("x", func() int64 { return 1 })
	sa.Finalize(100)
	sa.AbsorbAs("", nil)
	sa.Publish(nil)
	if sa.All() != nil {
		t.Error("nil sampler has series")
	}
	var buf bytes.Buffer
	if err := sa.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"series": []`) {
		t.Errorf("nil sampler JSON: %s", buf.String())
	}
}

// MergeSeries prefixes each world's series with its label, skips worlds
// without a sampler, and is nil when no world had one.
func TestMergeSeries(t *testing.T) {
	world := func(name string) *Sampler {
		sa := NewSampler(0, 0)
		sa.Probe(name, func() int64 { return 1 })
		sa.Finalize(0)
		return sa
	}
	labels := []string{"a/", "b/", "c/"}
	samplers := []*Sampler{world("nic0/x"), nil, world("nic0/x")}
	m := MergeSeries(len(samplers), func(i int) (string, *Sampler) { return labels[i], samplers[i] })
	var names []string
	for _, s := range m.All() {
		names = append(names, s.Name())
	}
	if got := strings.Join(names, " "); got != "a/nic0/x c/nic0/x" {
		t.Errorf("merged series %q, want a/nic0/x c/nic0/x", got)
	}
	if m := MergeSeries(2, func(int) (string, *Sampler) { return "x/", nil }); m != nil {
		t.Errorf("merge of no samplers = %v, want nil", m)
	}
}
