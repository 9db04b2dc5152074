package network

import (
	"testing"

	"alpusim/internal/match"
	"alpusim/internal/params"
	"alpusim/internal/sim"
)

func TestWireLatency(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	var arrived sim.Time
	net.Send(Packet{Kind: Eager, Src: 0, Dst: 1, Size: 0})
	eng.Spawn("rx", func(p *sim.Process) {
		p.WaitCond(net.Endpoint(1).Arrived, func() bool { return net.Endpoint(1).RxQ.Len() > 0 })
		arrived = p.Now()
	})
	eng.Run()
	// 32B header at 2 B/ns = 16ns tx + 200ns wire.
	if arrived != 216*sim.Nanosecond {
		t.Fatalf("arrival at %v, want 216ns", arrived)
	}
}

func TestInOrderDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	for i := 0; i < 10; i++ {
		net.Send(Packet{Kind: Eager, Src: 0, Dst: 1, Hdr: match.Header{Tag: int32(i)}})
	}
	var tags []int32
	eng.Spawn("rx", func(p *sim.Process) {
		for len(tags) < 10 {
			p.WaitCond(net.Endpoint(1).Arrived, func() bool { return net.Endpoint(1).RxQ.Len() > 0 })
			for {
				pkt, ok := net.Endpoint(1).RxQ.Pop()
				if !ok {
					break
				}
				tags = append(tags, pkt.Hdr.Tag)
			}
		}
	})
	eng.Run()
	for i, tag := range tags {
		if tag != int32(i) {
			t.Fatalf("out-of-order delivery: %v", tags)
		}
	}
}

func TestTxSerialisation(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	// Two large packets back to back: second is delayed by the first's
	// transmit occupancy.
	net.Send(Packet{Kind: Data, Src: 0, Dst: 1, Size: 2016}) // (32+2016)/2 = 1024ns tx
	net.Send(Packet{Kind: Data, Src: 0, Dst: 1, Size: 0})
	var arrivals []sim.Time
	eng.Spawn("rx", func(p *sim.Process) {
		for len(arrivals) < 2 {
			p.WaitCond(net.Endpoint(1).Arrived, func() bool { return net.Endpoint(1).RxQ.Len() > 0 })
			for {
				if _, ok := net.Endpoint(1).RxQ.Pop(); !ok {
					break
				}
				arrivals = append(arrivals, p.Now())
			}
		}
	})
	eng.Run()
	if arrivals[0] != 1224*sim.Nanosecond {
		t.Errorf("first arrival %v, want 1224ns", arrivals[0])
	}
	if arrivals[1] != 1240*sim.Nanosecond {
		t.Errorf("second arrival %v, want 1240ns (queued behind first)", arrivals[1])
	}
}

func TestOnDeliverHookRunsBeforeQueue(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 2)
	hookSawEmptyQueue := false
	net.Endpoint(1).OnDeliver = func(p Packet) {
		hookSawEmptyQueue = net.Endpoint(1).RxQ.Len() == 0
	}
	net.Send(Packet{Kind: Eager, Src: 0, Dst: 1})
	eng.Run()
	if !hookSawEmptyQueue {
		t.Fatal("OnDeliver ran after the packet was queued")
	}
	if net.Endpoint(1).RxQ.Len() != 1 {
		t.Fatal("packet not queued")
	}
}

func TestStats(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, 3)
	net.Send(Packet{Src: 0, Dst: 1, Size: 100})
	net.Send(Packet{Src: 0, Dst: 2, Size: 50})
	eng.Run()
	if net.TxPackets(0) != 2 {
		t.Errorf("TxPackets(0) = %d", net.TxPackets(0))
	}
	if net.TxBytes(0) != 100+50+2*HeaderBytes {
		t.Errorf("TxBytes(0) = %d", net.TxBytes(0))
	}
	if net.Size() != 3 {
		t.Errorf("Size = %d", net.Size())
	}
}

func TestPacketKindString(t *testing.T) {
	for k, want := range map[PacketKind]string{Eager: "EAGER", RTS: "RTS", CTS: "CTS", Data: "DATA"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// TestPacketSeqPerSource: Packet.Seq is the ALPU probe correlation key, so
// it must be unique across every source of the network and increase with
// each source's transmissions — on a single-engine network and on a
// partitioned one, where sources on different partitions number their
// packets without sharing state.
func TestPacketSeqPerSource(t *testing.T) {
	const eps, perSrc = 3, 5
	check := func(t *testing.T, net *Network, run func()) {
		got := make([][]Packet, eps) // per destination: touched by its own partition only
		for d := 0; d < eps; d++ {
			d := d
			net.Endpoint(d).OnDeliver = func(p Packet) { got[d] = append(got[d], p) }
		}
		run()
		seen := map[uint64]bool{}
		seqs := make([][]uint64, eps) // per source, indexed by send order (Hdr.Tag)
		for s := range seqs {
			seqs[s] = make([]uint64, perSrc)
		}
		n := 0
		for _, ps := range got {
			for _, p := range ps {
				if seen[p.Seq] {
					t.Fatalf("Seq %#x delivered twice", p.Seq)
				}
				seen[p.Seq] = true
				seqs[p.Src][p.Hdr.Tag] = p.Seq
				n++
			}
		}
		if n != eps*perSrc {
			t.Fatalf("delivered %d packets, want %d", n, eps*perSrc)
		}
		for s, ss := range seqs {
			for i := 1; i < len(ss); i++ {
				if ss[i] <= ss[i-1] {
					t.Errorf("source %d: Seq %v not increasing in send order", s, ss)
					break
				}
			}
		}
	}
	// Each source sends perSrc packets round-robin over the other
	// endpoints, interleaved with the other sources at the same instants.
	sendAll := func(net *Network, eng func(src int) *sim.Engine) {
		for i := 0; i < perSrc; i++ {
			for s := 0; s < eps; s++ {
				pkt := Packet{Kind: Eager, Src: s, Dst: (s + 1 + i%(eps-1)) % eps, Hdr: match.Header{Tag: int32(i)}}
				eng(s).Schedule(sim.Time(i)*sim.Nanosecond, func() { net.Send(pkt) })
			}
		}
	}

	t.Run("single-engine", func(t *testing.T) {
		eng := sim.NewEngine()
		net := New(eng, eps)
		check(t, net, func() {
			sendAll(net, func(int) *sim.Engine { return eng })
			eng.Run()
		})
	})
	t.Run("two-partitions", func(t *testing.T) {
		engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
		ps := sim.NewPartitionSet(engines, params.WireLatency)
		partOf := []int{0, 0, 1}
		net := NewPartitioned(ps, partOf)
		check(t, net, func() {
			sendAll(net, func(s int) *sim.Engine { return engines[partOf[s]] })
			ps.Run()
		})
	})
}

// BenchmarkNetworkSend times one transmission through Send — serialisation,
// the fault draws when a model is installed, and the delivery it schedules
// — on a single-engine network with and without faults, and on a
// one-partition network whose deliveries take the canonical AtDelivery
// route. The engine runs every 1,024 sends so pending deliveries stay
// bounded.
func BenchmarkNetworkSend(b *testing.B) {
	faulty := &FaultModel{Seed: 1, DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.05, CorruptProb: 0.05}
	cases := []struct {
		name  string
		build func(eng *sim.Engine) *Network
	}{
		{"single/clean", func(eng *sim.Engine) *Network { return New(eng, 2) }},
		{"single/faults", func(eng *sim.Engine) *Network {
			net := New(eng, 2)
			net.SetFaults(faulty)
			return net
		}},
		{"partitioned-1/clean", func(eng *sim.Engine) *Network {
			return NewPartitioned(sim.NewPartitionSet([]*sim.Engine{eng}, params.WireLatency), []int{0, 0})
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			eng := sim.NewEngine()
			net := c.build(eng)
			rx := net.Endpoint(1).RxQ
			drain := func() {
				eng.Run()
				for rx.Len() > 0 {
					rx.Pop()
				}
			}
			pkt := Packet{Kind: Eager, Src: 0, Dst: 1, Hdr: match.Header{Context: 1, Source: 0, Tag: 7}, Size: 64}
			pkt.Seal()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Send(pkt)
				if i%1024 == 1023 {
					drain()
				}
			}
			drain()
		})
	}
}
