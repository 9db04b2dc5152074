package nic

import (
	"testing"

	"alpusim/internal/dram"
	"alpusim/internal/match"
	"alpusim/internal/memsys"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/sim"
)

// BenchmarkFirmwareFind measures the firmware's software queue search
// with its full cost accounting (cache-model loads, cycle charges, the
// process sleeps they cost) on the three organisations: a miss over a
// 256-entry list, a fabric shard probe that walks a 64-entry mirrored
// prefix and then finds its match in the overflow hash, and an exact
// probe on the hash organisation. One op is one search.
func BenchmarkFirmwareFind(b *testing.B) {
	const n = 256
	entries := func() []*match.Entry {
		out := make([]*match.Entry, n)
		for i := range out {
			bits, mask := match.PackRecv(match.Recv{Context: 1, Source: int32(i % 8), Tag: int32(i)})
			out[i] = &match.Entry{Bits: bits, Mask: mask, Addr: 0x1_0000 + uint64(i)*params.QueueEntryFullBytes}
		}
		return out
	}
	probe := func(tag int) match.Bits {
		return match.Pack(match.Header{Context: 1, Source: int32(tag % 8), Tag: int32(tag)})
	}

	list := &mirrorQueue{}
	for _, e := range entries() {
		list.list.Append(e)
	}
	shard := &mirrorQueue{over: match.NewHashList(), inALPU: 64}
	for i, e := range entries() {
		shard.list.Append(e)
		if i >= shard.inALPU {
			shard.over.InsertOrdered(e)
		}
	}
	hash := &mirrorQueue{hash: match.NewHashList()}
	for _, e := range entries() {
		hash.hash.Append(e)
	}

	for _, c := range []struct {
		name string
		q    *mirrorQueue
		bits match.Bits
		hits int // matches per search
	}{
		{"list-miss-256", list, probe(n), 0},
		{"shard-overflow", shard, probe(200), 1},
		{"hash-exact", hash, probe(200), 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			nc := &NIC{}
			eng := sim.NewEngine()
			defer eng.Close()
			cpu := params.NICCPU()
			mem := memsys.New(cpu, dram.New(dram.DefaultConfig()))
			found := 0
			eng.Spawn("fw", func(p *sim.Process) {
				e := proc.New(p, cpu, mem)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					entry, _, _ := nc.find(e, c.q, c.bits, match.FullMask, 0)
					if entry != nil {
						found++
					}
				}
				b.StopTimer()
			})
			eng.Run()
			if found != c.hits*b.N {
				b.Fatalf("found %d matches in %d searches, want %d", found, b.N, c.hits*b.N)
			}
		})
	}
}
