package network

import (
	"testing"

	"alpusim/internal/match"
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
