package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The tenancy sweep's waterlines: every configuration contributes its
// series under a "<config>/" prefix, the fabric rows expose per-shard
// depths, and the merged bytes are partition-invariant.
func TestTenancySeriesMerged(t *testing.T) {
	cfg := TenancyBenchConfig{
		Ranks: 4, Comms: 4, Msgs: 128,
		Shards: []int{4}, Series: true, Plan: Plan{Jobs: 1, Seed: 7},
	}
	run := func(par int) []byte {
		c := cfg
		c.World.Partitions = par
		m := MergedTenancySeries(RunTenancy(c))
		if m == nil {
			t.Fatalf("par %d: no merged series", par)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("par %d: WriteJSON: %v", par, err)
		}
		return buf.Bytes()
	}
	p1 := run(1)
	for _, want := range []string{
		`"alpu-128/nic0/posted/depth"`,
		`"fabric-4/nic0/fabric/shard3/depth"`,
		`"sw-list/nic0/posted/depth"`,
	} {
		if !strings.Contains(string(p1), want) {
			t.Errorf("merged series missing %s", want)
		}
	}
	if p2 := run(2); !bytes.Equal(p1, p2) {
		t.Errorf("merged tenancy series differ between -par 1 and -par 2")
	}
}
