package workloads

import (
	"testing"

	"alpusim/internal/mpi"
	"alpusim/internal/nic"
)

func tenancyNIC(alpuOn bool, shards int) mpi.Config {
	return world(nic.Config{UseALPU: alpuOn, Cells: 64, MatchShards: shards}, 4)
}

// The tenancy digest is the fabric's correctness fingerprint: every
// configuration must produce byte-identical receive outcomes.
func TestTenancySmokeFabric(t *testing.T) {
	p := TenancyParams{Comms: 4, Msgs: 200, Seed: 7}
	sw := Tenancy(tenancyNIC(false, 0), p)
	a1 := Tenancy(tenancyNIC(true, 0), p)
	f2 := Tenancy(tenancyNIC(true, 2), p)
	f4 := Tenancy(tenancyNIC(true, 4), p)
	if sw.Digest != a1.Digest || sw.Digest != f2.Digest || sw.Digest != f4.Digest {
		t.Fatalf("digest mismatch: sw=%x a1=%x f2=%x f4=%x", sw.Digest, a1.Digest, f2.Digest, f4.Digest)
	}
	t.Logf("digest=%x elapsed sw=%v a1=%v f2=%v f4=%v", sw.Digest, sw.Elapsed, a1.Elapsed, f2.Elapsed, f4.Elapsed)
}
