package bench

import (
	"bytes"
	"strings"
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/nic"
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

func tenancyNIC(alpuOn bool, shards int) mpi.Config {
	return studyWorld(nic.Config{UseALPU: alpuOn, Cells: 64, MatchShards: shards}, 4)
}

// The tenancy digest is the fabric's correctness fingerprint: every
// configuration must produce byte-identical receive outcomes.
func TestTenancySmokeFabric(t *testing.T) {
	p := TenancyBenchConfig{Comms: 4, Msgs: 200, Plan: Plan{Seed: 7}}
	sw := tenancy(tenancyNIC(false, 0), p)
	a1 := tenancy(tenancyNIC(true, 0), p)
	f2 := tenancy(tenancyNIC(true, 2), p)
	f4 := tenancy(tenancyNIC(true, 4), p)
	if sw.Digest != a1.Digest || sw.Digest != f2.Digest || sw.Digest != f4.Digest {
		t.Fatalf("digest mismatch: sw=%x a1=%x f2=%x f4=%x", sw.Digest, a1.Digest, f2.Digest, f4.Digest)
	}
	t.Logf("digest=%x elapsed sw=%v a1=%v f2=%v f4=%v", sw.Digest, sw.Elapsed, a1.Elapsed, f2.Elapsed, f4.Elapsed)
}
