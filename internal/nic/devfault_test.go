package nic_test

import (
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
)

// devFaultWatchdog bounds the faulty worlds in this file: recovery costs
// simulated time (timeouts, backoff, firmware reboots), but a correct
// failover still drains these plans in well under 50 ms.
const devFaultWatchdog = 50 * sim.Millisecond

// runPipeline drives msgs uniquely-tagged eager messages 0->1 with all
// receives pre-posted (so the posted queue is long enough to engage the
// ALPU), optionally pausing the sender mid-stream so a scheduled device
// death lands inside the traffic. Every receive must complete with the
// matching envelope — faults may cost time, never correctness. fm is the
// world's fault model.
func runPipeline(t *testing.T, nc nic.Config, fm network.FaultModel, msgs int, pause sim.Time) *mpi.World {
	t.Helper()
	var statuses []mpi.Status
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: nc, Faults: &fm, WatchdogLimit: devFaultWatchdog}, []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			for i := 0; i < msgs; i++ {
				if pause > 0 && i == msgs/2 {
					r.Compute(pause)
				}
				r.Wait(r.Isend(1, 0x100+i, 32))
			}
		},
		func(r *mpi.Rank) {
			reqs := make([]*mpi.Request, msgs)
			for i := 0; i < msgs; i++ {
				reqs[i] = r.Irecv(0, 0x100+i, 32)
			}
			r.Barrier()
			for i := 0; i < msgs; i++ {
				r.Wait(reqs[i])
				statuses = append(statuses, reqs[i].Status())
			}
		},
	})
	if len(statuses) != msgs {
		t.Fatalf("completed %d receives, want %d", len(statuses), msgs)
	}
	for i, st := range statuses {
		if st.Source != 0 || st.Tag != 0x100+i {
			t.Errorf("receive %d matched wrong envelope: %+v", i, st)
		}
	}
	if n := w.NICs[1]; n.PostedLen() != 0 || n.UnexpLen() != 0 {
		t.Errorf("leftovers after drain: posted=%d unexp=%d", n.PostedLen(), n.UnexpLen())
	}
	return w
}

// TestALPUDeathFailsOverMidRun is the tentpole scenario at NIC scope: the
// posted-receive unit dies mid-traffic, the firmware strikes out through
// response timeouts, declares it dead, and every remaining message is
// matched by the software hash shadow — no loss, no hang.
func TestALPUDeathFailsOverMidRun(t *testing.T) {
	cfg := nic.Config{
		UseALPU: true, Cells: 32,
		// Tight recovery policy so the strike ladder (timeouts plus
		// exponential backoff between health checks) fits inside the run.
		FaultResultTimeout: 1 * sim.Microsecond,
		FaultRetryBase:     3 * sim.Microsecond,
	}
	w := runPipeline(t, cfg, network.FaultModel{Seed: 3, ALPUDeathAt: 40 * sim.Microsecond}, 128, 600*sim.Microsecond)
	n := w.NICs[1]
	if !n.ALPUDead("posted") {
		t.Fatalf("posted ALPU not declared dead after its device went dark (strikes=%d resyncs=%d deaths=%d unexpDead=%v)",
			n.FailoverCount("strikes"), n.FailoverCount("resyncs"),
			n.FailoverCount("deaths"), n.ALPUDead("unexp"))
	}
	if n.FailoverCount("deaths") == 0 || n.FailoverCount("shadow_rebuilds") == 0 {
		t.Errorf("failover not recorded: deaths=%d rebuilds=%d",
			n.FailoverCount("deaths"), n.FailoverCount("shadow_rebuilds"))
	}
	if n.FailoverCount("strikes") < 5 {
		t.Errorf("death declared after only %d strikes", n.FailoverCount("strikes"))
	}
	// The first half of the run used the healthy unit; the second half the
	// software shadow: both paths must have seen real work.
	st := n.Stats()
	if st.ALPUPostedHits == 0 {
		t.Error("no ALPU hits before the death — scenario never exercised the unit")
	}
}

// TestBitFlipStormResyncsAndSurvives: a storm of transient cell
// corruption is detected by parity, surfaced as FAULT responses, and
// absorbed through resyncs — the run completes with every envelope
// matched, without (necessarily) killing the unit.
func TestBitFlipStormResyncsAndSurvives(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 32}
	w := runPipeline(t, cfg, network.FaultModel{Seed: 5, ALPUBitFlipProb: 0.02}, 96, 0)
	n := w.NICs[1]
	if n.FailoverCount("fault_responses") == 0 {
		t.Error("storm injected no observed FAULT responses; scenario idle")
	}
	if n.FailoverCount("resyncs") == 0 {
		t.Error("parity faults never triggered a resync")
	}
	if dev := n.PostedALPU(); dev.Stats().BitFlips == 0 {
		t.Error("device injected no bit flips")
	}
}

// TestResultDropsStrikeAndRecover: silently lost result-FIFO entries
// surface as response timeouts; the firmware strikes, resyncs, and the
// run still completes correctly.
func TestResultDropsStrikeAndRecover(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 32}
	w := runPipeline(t, cfg, network.FaultModel{Seed: 11, ALPUResultDropProb: 0.05}, 96, 0)
	n := w.NICs[1]
	if dev := n.PostedALPU(); dev.Stats().DroppedResults == 0 {
		t.Skip("seed produced no drops at this rate; nothing to observe")
	}
	if n.FailoverCount("strikes") == 0 {
		t.Error("dropped results never struck")
	}
}

// TestFirmwareCrashRestarts: injected firmware crashes restart after the
// reboot delay and replay device state from the shadow queues; no queued
// packet or host request is lost across any crash. Each NIC draws its
// own crash stream from the world seed.
func TestFirmwareCrashRestarts(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 32}
	w := runPipeline(t, cfg, network.FaultModel{Seed: 7, FwCrashProb: 0.03}, 96, 0)
	crashes, restarts := uint64(0), uint64(0)
	for _, n := range w.NICs {
		crashes += n.FailoverCount("fw_crashes")
		restarts += n.FailoverCount("fw_restarts")
	}
	if crashes == 0 {
		t.Fatal("crash injection idle over ~200 work items at 3%")
	}
	if crashes != restarts {
		t.Errorf("crashes=%d restarts=%d — a firmware died for good", crashes, restarts)
	}
}

// TestDeviceFaultDeterminism: the same device-fault seed must reproduce
// the identical strike/resync/failover history, run to run.
func TestDeviceFaultDeterminism(t *testing.T) {
	run := func() [4]uint64 {
		cfg := nic.Config{UseALPU: true, Cells: 32}
		w := runPipeline(t, cfg, network.FaultModel{Seed: 9,
			ALPUBitFlipProb: 0.01, ALPUResultDropProb: 0.02, FwCrashProb: 0.01}, 64, 0)
		n := w.NICs[1]
		return [4]uint64{
			n.FailoverCount("strikes"), n.FailoverCount("resyncs"),
			n.FailoverCount("deaths"), w.NICs[0].FailoverCount("fw_crashes") + n.FailoverCount("fw_crashes"),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds, different recovery history: %v vs %v", a, b)
	}
	if a[0] == 0 && a[3] == 0 {
		t.Fatalf("fault injection idle: %v", a)
	}
}
