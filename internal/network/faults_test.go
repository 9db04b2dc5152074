package network

import (
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/sim"
)

// sendN fires n sealed eager packets 0->1 with distinct tags.
func sendN(net *Network, n int) {
	for i := 0; i < n; i++ {
		p := Packet{Kind: Eager, Src: 0, Dst: 1, Hdr: match.Header{Tag: int32(i)}}
		p.Seal()
		net.Send(p)
	}
}

// TestBoundedRxQDropsWhenUnreliable: a bounded endpoint FIFO with no
// ingress protocol sheds overflow and counts it — the raw-hardware
// behaviour the reliability engine exists to prevent.
func TestBoundedRxQDropsWhenUnreliable(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	ep := net.Endpoint(1)
	ep.RxQ = sim.NewFIFO[Packet](eng, "bounded", 3)
	sendN(net, 10) // nobody drains
	eng.Run()
	if got := ep.RxQ.Len(); got != 3 {
		t.Errorf("queued %d packets, want the 3 the FIFO holds", got)
	}
	if got := ep.RxQ.Drops(); got != 7 {
		t.Errorf("FIFO counted %d drops, want 7", got)
	}
}

// TestIngressConsumesBeforeQueue: a refusing Ingress hook must consume the
// packet before the OnDeliver replication and the FIFO see it.
func TestIngressConsumesBeforeQueue(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	ep := net.Endpoint(1)
	delivered := 0
	ep.OnDeliver = func(Packet) { delivered++ }
	accept := 0
	ep.Ingress = func(p Packet) bool {
		accept++
		return p.Hdr.Tag%2 == 0
	}
	sendN(net, 6)
	eng.Run()
	if accept != 6 {
		t.Errorf("ingress saw %d packets, want 6", accept)
	}
	if delivered != 3 || ep.RxQ.Len() != 3 {
		t.Errorf("odd-tag packets leaked past ingress: OnDeliver=%d queued=%d", delivered, ep.RxQ.Len())
	}
}

// TestFaultInjectionDeterministic: the same seed over the same transmission
// sequence must inject the identical fault mix; a different seed must not.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func(seed int64) FaultStats {
		eng := sim.NewEngine()
		net := New(eng, 2)
		net.SetFaults(&FaultModel{Seed: seed, DropProb: 0.1, DupProb: 0.1, ReorderProb: 0.1, CorruptProb: 0.1})
		sendN(net, 400)
		eng.Run()
		return net.FaultStats()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Total() == 0 {
		t.Error("10%% fault rates injected nothing over 400 packets")
	}
	if c := run(8); c == a {
		t.Errorf("different seeds produced identical stats %+v — stream not seeded", c)
	}
}

// TestCorruptionAlwaysDetectable: every corrupted delivery must fail the
// checksum — the fault model flips bits only in checksummed content.
func TestCorruptionAlwaysDetectable(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	net.SetFaults(&FaultModel{Seed: 3, CorruptProb: 1})
	sendN(net, 50)
	eng.Run()
	ep := net.Endpoint(1)
	if ep.RxQ.Len() != 50 {
		t.Fatalf("delivered %d packets, want 50", ep.RxQ.Len())
	}
	for {
		pkt, ok := ep.RxQ.Pop()
		if !ok {
			break
		}
		if pkt.ChecksumOK() {
			t.Fatalf("corrupted packet passed its checksum: %+v", pkt)
		}
	}
	if got := net.FaultStats().Corrupted; got != 50 {
		t.Errorf("Corrupted=%d, want 50", got)
	}
}

// TestDropAndDupExtremes: probability-1 drop delivers nothing;
// probability-1 duplication delivers everything twice.
func TestDropAndDupExtremes(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	net.SetFaults(&FaultModel{Seed: 1, DropProb: 1})
	sendN(net, 20)
	eng.Run()
	if got := net.Endpoint(1).RxQ.Len(); got != 0 {
		t.Errorf("drop=1 still delivered %d packets", got)
	}

	eng = sim.NewEngine()
	net = New(eng, 2)
	net.SetFaults(&FaultModel{Seed: 1, DupProb: 1})
	sendN(net, 20)
	eng.Run()
	if got := net.Endpoint(1).RxQ.Len(); got != 40 {
		t.Errorf("dup=1 delivered %d packets, want 40", got)
	}
}

// TestParseFaults covers the -faults flag grammar.
func TestParseFaults(t *testing.T) {
	if fm, err := ParseFaults("", 1); err != nil || fm != nil {
		t.Errorf("empty spec: %v, %v", fm, err)
	}
	fm, err := ParseFaults("0.02", 9)
	if err != nil || fm.DropProb != 0.02 || fm.CorruptProb != 0.02 || fm.Seed != 9 {
		t.Errorf("uniform spec: %+v, %v", fm, err)
	}
	fm, err = ParseFaults("drop=0.01,reorder=0.05", 2)
	if err != nil || fm.DropProb != 0.01 || fm.ReorderProb != 0.05 || fm.DupProb != 0 {
		t.Errorf("pair spec: %+v, %v", fm, err)
	}
	for _, bad := range []string{"x", "drop=2", "mangle=0.1", "drop"} {
		if _, err := ParseFaults(bad, 0); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestParseFaultsDeviceClasses covers the device-fault grammar additions.
func TestParseFaultsDeviceClasses(t *testing.T) {
	fm, err := ParseFaults("alpubitflip=0.001,alpuresultdrop=0.01,alpustuck=0.02,fwcrash=0.0001,alpudeath@500us,linkflap=0.2", 3)
	if err != nil {
		t.Fatalf("device spec: %v", err)
	}
	if fm.ALPUBitFlipProb != 0.001 || fm.ALPUResultDropProb != 0.01 ||
		fm.ALPUStuckProb != 0.02 || fm.FwCrashProb != 0.0001 ||
		fm.ALPUDeathAt != 500*sim.Microsecond || fm.LinkFlapFrac != 0.2 {
		t.Fatalf("device spec fields: %+v", fm)
	}
	if fm.WireActive() != true || !fm.DeviceActive() || !fm.Active() {
		t.Fatalf("activity split: wire=%v device=%v", fm.WireActive(), fm.DeviceActive())
	}
	fm, err = ParseFaults("alpudeath@2ms", 0)
	if err != nil || fm.ALPUDeathAt != 2*sim.Millisecond || fm.WireActive() {
		t.Fatalf("death-only spec: %+v, %v", fm, err)
	}
	if fm, err = ParseFaults("linkflap", 0); err != nil || fm.LinkFlapFrac != 0.1 {
		t.Fatalf("bare linkflap: %+v, %v", fm, err)
	}
}

// TestParseFaultsErrorsArePositional: a bad element is reported with its
// token and 1-based position, not a bare message.
func TestParseFaultsErrorsArePositional(t *testing.T) {
	_, err := ParseFaults("drop=0.01,bogus=0.5,dup=0.1", 0)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError (%v)", err, err)
	}
	if pe.Pos != 2 || pe.Token != "bogus=0.5" {
		t.Errorf("ParseError = %+v, want Pos 2 token bogus=0.5", pe)
	}
	for _, c := range []struct {
		spec, tok string
		pos       int
	}{
		{"drop=0.01,,dup=0.1", "", 2},
		{"alpudeath@yesterday", "alpudeath@yesterday", 1},
		{"drop=0.01,alpustuck=7", "alpustuck=7", 2},
		{"1.5", "1.5", 1},
		{"NaN", "NaN", 1},
		{"drop=0.01,corrupt=NaN", "corrupt=NaN", 2},
		{"drop=0.01,alpudeath@3000h", "alpudeath@3000h", 2},
		{"drop=0.1,drop=0.2", "drop=0.2", 2},
		{"DROP=0.1,drop=0.2", "drop=0.2", 2},
		{"linkflap,linkflap=0.3", "linkflap=0.3", 2},
		{"linkflap=0.3,dup=0.1,linkflap", "linkflap", 3},
		{"alpudeath@1us,drop=0.1,alpudeath@2us", "alpudeath@2us", 3},
	} {
		_, err := ParseFaults(c.spec, 0)
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("spec %q: error type %T, want *ParseError", c.spec, err)
			continue
		}
		if pe.Pos != c.pos || pe.Token != c.tok {
			t.Errorf("spec %q: got pos %d token %q, want pos %d token %q",
				c.spec, pe.Pos, pe.Token, c.pos, c.tok)
		}
	}
}

// FuzzParseFaults: any spec either fails with a *ParseError or yields a
// model whose probabilities all lie in [0,1] and whose ALPU death time is
// not negative. The seed corpus lives in testdata/fuzz/FuzzParseFaults.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		fm, err := ParseFaults(spec, seed)
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("spec %q: error type %T, want *ParseError", spec, err)
			}
			return
		}
		if fm == nil {
			return
		}
		for name, p := range map[string]float64{
			"drop": fm.DropProb, "dup": fm.DupProb, "reorder": fm.ReorderProb,
			"corrupt": fm.CorruptProb, "linkflap": fm.LinkFlapFrac,
			"alpubitflip": fm.ALPUBitFlipProb, "alpuresultdrop": fm.ALPUResultDropProb,
			"alpustuck": fm.ALPUStuckProb, "fwcrash": fm.FwCrashProb,
		} {
			if !(p >= 0 && p <= 1) {
				t.Errorf("spec %q: %s probability %v outside [0,1]", spec, name, p)
			}
		}
		if fm.ALPUDeathAt < 0 {
			t.Errorf("spec %q: ALPUDeathAt %v is negative", spec, fm.ALPUDeathAt)
		}
	})
}

// TestLinkFlapDropsAndRecovers: a flapping link drops whole windows of
// traffic deterministically; the same (seed, src, t) is down in every run.
func TestLinkFlap(t *testing.T) {
	fm := &FaultModel{Seed: 5, LinkFlapFrac: 0.3}
	downA, downB := 0, 0
	for w := 0; w < 1000; w++ {
		at := sim.Time(w) * flapWindow
		if fm.linkDown(0, at) {
			downA++
		}
		if fm.linkDown(0, at) != fm.linkDown(0, at) {
			t.Fatal("linkDown not deterministic")
		}
		if fm.linkDown(1, at) {
			downB++
		}
	}
	if downA < 200 || downA > 400 {
		t.Errorf("down fraction off: %d/1000 windows at frac 0.3", downA)
	}
	if downA == downB {
		t.Error("sources share a flap schedule")
	}

	eng := sim.NewEngine()
	net := New(eng, 2)
	net.SetFaults(&FaultModel{Seed: 1, LinkFlapFrac: 1})
	sendN(net, 20)
	eng.Run()
	if got := net.Endpoint(1).RxQ.Len(); got != 0 {
		t.Errorf("linkflap=1 still delivered %d packets", got)
	}
	if fs := net.FaultStats(); fs.FlapDropped != 20 || fs.Total() != 20 {
		t.Errorf("flap stats %+v, want 20 flap-dropped", fs)
	}
}
