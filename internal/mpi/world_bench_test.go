package mpi

import "testing"

var builtWorld *World

// BenchmarkWorldBuild measures building a 2-rank baseline-NIC world: the
// per-world setup every sweep cell pays before its first event. Most of it
// is model state (host and NIC memory hierarchies, queues, registries), so
// allocs/op and B/op are the figures to watch.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtWorld = NewWorld(baseCfg(2))
	}
}
