package nic_test

import (
	"errors"
	"testing"

	"alpusim/internal/alpu"
	"alpusim/internal/mpi"
	"alpusim/internal/network"
	"alpusim/internal/nic"
	"alpusim/internal/sim"
)

// buildQueue pre-posts q receives on rank 1 and then matches one probe.
func buildQueue(t *testing.T, nc nic.Config, q int) *mpi.World {
	t.Helper()
	return mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: nc}, []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			r.Send(1, 0x500, 0)
		},
		func(r *mpi.Rank) {
			for i := 0; i < q; i++ {
				r.Irecv(0, 0x100+i, 0)
			}
			req := r.Irecv(0, 0x500, 0)
			r.Barrier()
			r.Wait(req)
		},
	})
}

// TestThresholdHeuristic checks §VI-B's software heuristic: below the
// threshold the firmware leaves the queue in software; above it the ALPU
// is engaged.
func TestThresholdHeuristic(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 128, Threshold: 50}

	w := buildQueue(t, cfg, 10) // below threshold
	if n := w.NICs[1].Stats().ALPUInserts; n != 0 {
		t.Errorf("below threshold: %d inserts, want 0", n)
	}
	// Below the threshold the unit is never engaged: no probes, no result
	// reads, no interface penalty (§IV-C / §VI-B).
	st := w.NICs[1].Stats()
	if st.ALPUPostedMisses != 0 || st.ALPUPostedHits != 0 {
		t.Errorf("below threshold: ALPU interactions happened (hits=%d misses=%d)",
			st.ALPUPostedHits, st.ALPUPostedMisses)
	}
	if st.EntriesTraversed < 10 {
		t.Errorf("below threshold: software search traversed %d entries, want >= 10", st.EntriesTraversed)
	}

	w = buildQueue(t, cfg, 80) // above threshold
	if n := w.NICs[1].Stats().ALPUInserts; n == 0 {
		t.Error("above threshold: no inserts")
	}
	if w.NICs[1].Stats().ALPUPostedHits == 0 {
		t.Error("above threshold: probe missed the ALPU")
	}
}

// TestInsertBatching: conglomerated inserts (§IV-B) need far fewer
// START/STOP INSERT episodes than one-at-a-time insertion.
func TestInsertBatching(t *testing.T) {
	batched := nic.Config{UseALPU: true, Cells: 128}
	single := nic.Config{UseALPU: true, Cells: 128, InsertBatchMax: 1}

	wb := buildQueue(t, batched, 60)
	ws := buildQueue(t, single, 60)

	eb := wb.NICs[1].Stats().InsertEpisodes
	es := ws.NICs[1].Stats().InsertEpisodes
	if es < 60 {
		t.Errorf("single-insert mode ran %d episodes, want >= 60", es)
	}
	if eb*4 > es {
		t.Errorf("batching did not help: %d batched vs %d single episodes", eb, es)
	}
	// Counts may differ by a couple of control-traffic (barrier) receives
	// whose insertion races their match differently under each pacing.
	ib, is := wb.NICs[1].Stats().ALPUInserts, ws.NICs[1].Stats().ALPUInserts
	if d := int64(ib) - int64(is); d < -2 || d > 2 {
		t.Errorf("insert counts differ too much: %d vs %d", ib, is)
	}
}

// TestALPUOverflowPrefix: with more receives than cells, the ALPU holds
// the oldest prefix and the firmware searches only the overflow suffix.
func TestALPUOverflowPrefix(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 32}
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			// Match deep in the overflow region (position 50 of 60).
			r.Send(1, 0x100+50, 0)
		},
		func(r *mpi.Rank) {
			reqs := make([]*mpi.Request, 60)
			for i := 0; i < 60; i++ {
				reqs[i] = r.Irecv(0, 0x100+i, 0)
			}
			r.Barrier()
			r.Wait(reqs[50])
		},
	})
	st := w.NICs[1].Stats()
	if st.ALPUPostedMisses == 0 {
		t.Error("overflow probe should miss the ALPU")
	}
	// Suffix searches traverse only past the 32-entry prefix: ~19 for the
	// probe plus ~28 for the barrier-release header that also misses the
	// ALPU — far fewer than the 50+ a full software search would cost.
	if st.EntriesTraversed < 19 || st.EntriesTraversed > 60 {
		t.Errorf("suffix searches traversed %d entries, want ~47", st.EntriesTraversed)
	}
	if dev := w.NICs[1].PostedALPU(); dev.Stats().MaxOccupancy != 32 {
		t.Errorf("ALPU max occupancy %d, want 32 (full prefix)", dev.Stats().MaxOccupancy)
	}
}

// TestALPURefillAfterMatch: consuming an ALPU entry makes room and the
// firmware tops the unit back up from the software suffix.
func TestALPURefillAfterMatch(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 16}
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			for k := 0; k < 8; k++ {
				r.Send(1, 0x100+k, 0)
				r.Recv(1, 0x200+k, 0) // ack => firmware idles => refill
			}
		},
		func(r *mpi.Rank) {
			reqs := make([]*mpi.Request, 24)
			for i := 0; i < 24; i++ {
				reqs[i] = r.Irecv(0, 0x100+i, 0)
			}
			r.Barrier()
			for k := 0; k < 8; k++ {
				r.Wait(reqs[k])
				r.Send(0, 0x200+k, 0)
			}
		},
	})
	st := w.NICs[1].Stats()
	// 16 initial + one refill per consumed entry (8) = 24 total inserts.
	if st.ALPUInserts != 24 {
		t.Errorf("inserts = %d, want 24 (16 initial + 8 refills)", st.ALPUInserts)
	}
	if st.ALPUPostedHits != 8 {
		t.Errorf("ALPU hits = %d, want 8", st.ALPUPostedHits)
	}
}

// TestInsertRacePurge reproduces the §IV-C ordering race: a header whose
// MATCH FAILURE was generated just before an insert episode loaded the
// matching entry. The firmware must resolve the header against the
// pre-episode list state and purge the stale ALPU copy.
func TestInsertRacePurge(t *testing.T) {
	cfg := nic.Config{UseALPU: true, Cells: 128}
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
		func(r *mpi.Rank) {
			// The send leaves before rank 1 posts anything; the recv post
			// and the header race at rank 1's NIC.
			req := r.Isend(1, 1, 32<<10)
			r.Barrier()
			r.Wait(req)
		},
		func(r *mpi.Rank) {
			r.Barrier()
			r.Recv(0, 1, 32<<10)
		},
	})
	// The run completing at all is the regression check (this pattern
	// deadlocked before the purge path existed); when the race fires the
	// purge counters record it on one of the NICs.
	total := w.NICs[0].Stats().ALPUPurges + w.NICs[1].Stats().ALPUPurges
	t.Logf("purges: %d", total)
	for i, n := range w.NICs {
		if n.PostedLen() != 0 || n.UnexpLen() != 0 {
			t.Errorf("nic%d: leftover entries posted=%d unexp=%d", i, n.PostedLen(), n.UnexpLen())
		}
	}
}

// TestHashQueueEndToEnd drives the §II hash organisation through real
// traffic, including unexpected messages and a probe.
func TestHashQueueEndToEnd(t *testing.T) {
	cfg := nic.Config{UseHashList: true}
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
		func(r *mpi.Rank) {
			for i := 0; i < 10; i++ {
				r.Send(1, 0x200+i, 0) // unexpected at rank 1
			}
			r.Barrier()
			r.Send(1, 0x300, 64)
		},
		func(r *mpi.Rank) {
			r.Barrier()
			if found, st := r.Iprobe(0, 0x205); !found || st.Tag != 0x205 {
				t.Errorf("hash probe: found=%v st=%+v", found, st)
			}
			// Drain deep-first to exercise hash search + remove.
			for i := 9; i >= 0; i-- {
				r.Recv(0, 0x200+i, 0)
			}
			r.Recv(0, 0x300, 64) // posted-then-matched path
		},
	})
	if w.NICs[1].UnexpLen() != 0 || w.NICs[1].PostedLen() != 0 {
		t.Error("hash queues not drained")
	}
	if w.NICs[1].UnexpDepths().N() == 0 {
		t.Error("hash search depths not recorded")
	}
}

// TestAccessors covers the instrumentation surface.
func TestAccessors(t *testing.T) {
	w := buildQueue(t, nic.Config{UseALPU: true, Cells: 64}, 12)
	n := w.NICs[1]
	if n.Config().Cells != 64 {
		t.Error("Config lost")
	}
	if n.Mem() == nil || n.UnexpALPU() == nil || n.PostedALPU() == nil {
		t.Error("nil accessor")
	}
	if n.PeakPostedLen() < 12 {
		t.Errorf("PeakPostedLen = %d", n.PeakPostedLen())
	}
	if n.PeakUnexpLen() < 0 {
		t.Error("PeakUnexpLen negative")
	}
	if n.PostedDepths().N() == 0 {
		t.Error("no posted depths")
	}
	_ = n.UnexpDepths()
}

// TestALPUConfigOverride covers a custom device build point via
// ALPUConfig: both units are built from it as given, with only a zero
// Geometry.Cells filled in from Cells.
func TestALPUConfigOverride(t *testing.T) {
	acfg := alpu.DefaultConfig(0) // Cells 0: filled from Cells
	acfg.Geometry.BlockSize = 8
	acfg.MatchCycles = 9
	acfg.ResultFIFODepth = 3
	acfg.PerCycle = true
	cfg := nic.Config{UseALPU: true, Cells: 32, ALPUConfig: &acfg}
	w := buildQueue(t, cfg, 10)
	want := acfg
	want.Geometry.Cells = 32
	for _, dev := range []*alpu.Device{w.NICs[1].PostedALPU(), w.NICs[1].UnexpALPU()} {
		if got := dev.Config(); got != want {
			t.Errorf("unit config = %+v, want %+v", got, want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	w := buildQueue(t, nic.Config{}, 25)
	st := w.NICs[1].Stats()
	if st.PacketsHandled == 0 || st.HostReqsHandled == 0 {
		t.Error("handler counters empty")
	}
	if st.PostedMatches == 0 {
		t.Error("no posted matches recorded")
	}
	// The probe traversed the 25 non-matching entries (plus barrier
	// bookkeeping).
	if st.EntriesTraversed < 25 {
		t.Errorf("EntriesTraversed = %d, want >= 25", st.EntriesTraversed)
	}
	if st.Completions == 0 {
		t.Error("no completions recorded")
	}
}

// TestFallbackSearchPrefixFull pins the prefix-full overflow path: when
// the ALPU holds exactly Cells entries, updateALPU must stop feeding it
// (the inALPU >= cells guard) and every match landing past the prefix must
// resolve through fallbackSearch over the software suffix only.
func TestFallbackSearchPrefixFull(t *testing.T) {
	const cells, posted, hits = 16, 40, 4
	cfg := nic.Config{UseALPU: true, Cells: cells}
	w := mpi.RunPrograms(mpi.Config{Ranks: 2, NIC: cfg}, []mpi.Program{
		func(r *mpi.Rank) {
			r.Barrier()
			// Match from the far end of the overflow region inward; each
			// probe misses the full 16-cell prefix and resolves in software.
			for k := 0; k < hits; k++ {
				r.Send(1, 0x100+(posted-1-k), 0)
				r.Recv(1, 0x200+k, 0)
			}
		},
		func(r *mpi.Rank) {
			reqs := make([]*mpi.Request, posted)
			for i := 0; i < posted; i++ {
				reqs[i] = r.Irecv(0, 0x100+i, 0)
			}
			r.Barrier()
			for k := 0; k < hits; k++ {
				r.Wait(reqs[posted-1-k])
				r.Send(0, 0x200+k, 0)
			}
		},
	})
	st := w.NICs[1].Stats()
	if st.ALPUPostedMisses < hits {
		t.Errorf("ALPUPostedMisses = %d, want >= %d (every probe lands past the prefix)",
			st.ALPUPostedMisses, hits)
	}
	dev := w.NICs[1].PostedALPU()
	if dev.Stats().MaxOccupancy > cells {
		t.Errorf("ALPU occupancy exceeded its %d cells: %d", cells, dev.Stats().MaxOccupancy)
	}
	if w.NICs[1].PostedLen() != posted-hits {
		t.Errorf("posted queue length = %d, want %d", w.NICs[1].PostedLen(), posted-hits)
	}
	if errs := w.NICs[1].ErrorsTotal(); errs != 0 {
		t.Errorf("recoverable errors recorded on a clean run: %d (last: %v)",
			errs, w.NICs[1].LastError())
	}
}

// TestBoundedRxQReliableRecovers: with a tiny Rx FIFO and the reliability
// engine on, a traffic burst must survive via RNR flow control — nothing
// may be silently dropped by the FIFO, and all messages must complete.
func TestBoundedRxQReliableRecovers(t *testing.T) {
	const msgs = 16
	cfg := mpi.Config{Ranks: 2, NIC: nic.Config{Reliable: true, RxQDepth: 2}}
	w := mpi.RunPrograms(cfg, []mpi.Program{
		func(r *mpi.Rank) {
			reqs := make([]*mpi.Request, msgs)
			for i := 0; i < msgs; i++ {
				reqs[i] = r.Isend(1, i, 256)
			}
			r.Waitall(reqs...)
		},
		func(r *mpi.Rank) {
			reqs := make([]*mpi.Request, msgs)
			for i := 0; i < msgs; i++ {
				reqs[i] = r.Irecv(0, i, 256)
			}
			for i, req := range reqs {
				r.Wait(req)
				if st := req.Status(); st.Tag != i {
					t.Errorf("recv %d matched tag %d", i, st.Tag)
				}
			}
		},
	})
	for i, n := range w.NICs {
		if d := n.RxDrops(); d != 0 {
			t.Errorf("nic%d: reliable endpoint dropped %d packets in the Rx FIFO", i, d)
		}
		if p := n.RelPending(); p != 0 {
			t.Errorf("nic%d: %d packets unacked after drain", i, p)
		}
	}
}

// TestStaleCTSCountedNotFatal: a CTS naming a send the NIC does not track
// (stale control traffic) must be counted as a recoverable protocol error
// and dropped — the firmware used to panic here.
func TestStaleCTSCountedNotFatal(t *testing.T) {
	eng := sim.NewEngine()
	net := network.New(eng, 2)
	n := nic.New(eng, 1, nic.Config{}, net, nic.Env{})
	net.Send(network.Packet{Kind: network.CTS, Src: 0, Dst: 1, SenderReq: 42})
	eng.Run()
	if got := n.ErrorCount("cts-unknown-send"); got != 1 {
		t.Errorf("cts-unknown-send counter = %d, want 1 (total: %d)", got, n.ErrorsTotal())
	}
	err := n.LastError()
	var perr *nic.ProtocolError
	if !errors.As(err, &perr) || perr.Op != "cts-unknown-send" || perr.NIC != 1 {
		t.Errorf("LastError = %v, want a cts-unknown-send ProtocolError for nic1", err)
	}
}
