package host_test

import (
	"testing"

	"alpusim/internal/host"
	"alpusim/internal/match"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/sim"
)

// buildPair wires two host+NIC nodes directly (below the MPI layer).
func buildPair(eng *sim.Engine) (*host.Host, *host.Host) {
	net := network.New(eng, 2)
	n0 := nic.New(eng, 0, nic.Config{}, net, nic.Env{})
	n1 := nic.New(eng, 1, nic.Config{}, net, nic.Env{})
	return host.New(eng, 0, n0), host.New(eng, 1, n1)
}

func TestSubmitAndWaitRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1 := buildPair(eng)

	var sendDone, recvDone sim.Time
	eng.Spawn("h0", func(p *sim.Process) {
		e := proc.New(p, params.HostCPU(), h0.Mem())
		id := h0.NewID()
		req := h0.Submit(e, nic.HostRequest{
			Kind: nic.ReqSend, ID: id, Dst: 1,
			Hdr:  match.Header{Context: 1, Source: 0, Tag: 9},
			Size: 64,
		})
		h0.Wait(e, req)
		sendDone = p.Now()
	})
	eng.Spawn("h1", func(p *sim.Process) {
		e := proc.New(p, params.HostCPU(), h1.Mem())
		id := h1.NewID()
		req := h1.Submit(e, nic.HostRequest{
			Kind: nic.ReqRecv, ID: id,
			Recv: match.Recv{Context: 1, Source: 0, Tag: 9}, RecvSize: 64,
		})
		h1.Wait(e, req)
		recvDone = p.Now()
	})
	eng.Run()
	if sendDone == 0 || recvDone == 0 {
		t.Fatal("requests did not complete")
	}
	if recvDone <= sendDone-sim.Microsecond {
		t.Errorf("receive completed (%v) long before send (%v)", recvDone, sendDone)
	}
	if h0.Completions() != 1 || h1.Completions() != 1 {
		t.Errorf("completions = %d, %d; want 1, 1", h0.Completions(), h1.Completions())
	}
}

func TestWaitOnAlreadyDoneRequest(t *testing.T) {
	eng := sim.NewEngine()
	h0, h1 := buildPair(eng)

	eng.Spawn("h1", func(p *sim.Process) {
		e := proc.New(p, params.HostCPU(), h1.Mem())
		id := h1.NewID()
		req := h1.Submit(e, nic.HostRequest{
			Kind: nic.ReqRecv, ID: id,
			Recv: match.Recv{Context: 1, Source: 0, Tag: 1},
		})
		// Sleep long past delivery, then Wait: must return immediately.
		p.Sleep(50 * sim.Microsecond)
		if !req.Done {
			t.Error("request not done after 50us")
		}
		before := p.Now()
		h1.Wait(e, req)
		if d := p.Now() - before; d > sim.Microsecond {
			t.Errorf("Wait on done request took %v", d)
		}
	})
	eng.Spawn("h0", func(p *sim.Process) {
		e := proc.New(p, params.HostCPU(), h0.Mem())
		id := h0.NewID()
		req := h0.Submit(e, nic.HostRequest{
			Kind: nic.ReqSend, ID: id, Dst: 1,
			Hdr: match.Header{Context: 1, Source: 0, Tag: 1},
		})
		h0.Wait(e, req)
	})
	eng.Run()
}

func TestCompletionVisibilityDelay(t *testing.T) {
	// The completion crosses the host bus: DoneAt is at least the bus
	// latency after the request could have finished on the NIC.
	eng := sim.NewEngine()
	h0, h1 := buildPair(eng)
	_ = h1
	eng.Spawn("h0", func(p *sim.Process) {
		e := proc.New(p, params.HostCPU(), h0.Mem())
		id := h0.NewID()
		start := p.Now()
		req := h0.Submit(e, nic.HostRequest{
			Kind: nic.ReqSend, ID: id, Dst: 1,
			Hdr: match.Header{Context: 1, Source: 0, Tag: 2},
		})
		h0.Wait(e, req)
		// Submit bus + NIC processing + completion bus: >= 2x bus latency.
		if d := req.DoneAt - start; d < 2*params.HostBusLatency {
			t.Errorf("completion after %v, want >= %v", d, 2*params.HostBusLatency)
		}
	})
	eng.Run()
}
