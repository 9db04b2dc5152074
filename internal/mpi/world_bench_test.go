package mpi

import "testing"

var builtWorld *World

// BenchmarkWorldBuild measures building and closing a 2-rank
// baseline-NIC world: the per-world setup every sweep cell pays before
// its first event, plus the teardown of its never-started processes.
// Most of it is model state (host and NIC memory hierarchies, queues,
// registries), so allocs/op and B/op are the figures to watch.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtWorld = NewWorld(baseCfg(2))
		builtWorld.Close()
	}
}

// fig5Cell is one full-traversal Fig. 5 cell: rank 1 pre-posts 64
// non-matching receives ahead of the one rank 0's probe matches, so the
// probe walks the whole queue, and the matched receive's ack returns.
var fig5Cell = []Program{
	func(r *Rank) {
		ack := r.Irecv(1, 1000, 0)
		r.Barrier()
		r.Send(1, 64, 8)
		r.Wait(ack)
	},
	func(r *Rank) {
		for tag := 0; tag < 64; tag++ {
			r.Irecv(0, tag+2000, 0)
		}
		probe := r.Irecv(0, 64, 8)
		r.Barrier()
		r.Wait(probe)
		r.Send(0, 1000, 0)
	},
}

// BenchmarkWorldRun measures one world's whole lifecycle — build, RunSim
// and teardown — on a 2-rank baseline-NIC Fig. 5 cell.
func BenchmarkWorldRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtWorld = RunPrograms(baseCfg(2), fig5Cell)
	}
}
