package match

import "alpusim/internal/sim"

// Shard routing for the multi-ALPU matching fabric. A fabric hashes
// posted receives across N ALPU instances by (context, source) — the tag
// field is excluded so every probe for a given sender/communicator pair
// lands on the shard that holds its candidate receives. Wildcard-source
// receives match traffic from any sender, so they cannot be routed; the
// firmware broadcasts a copy to every shard instead (see nic/fabric.go).

// DispatchKey reduces a match word to its shard routing key: the
// (context, source) fields with the tag cleared. Two probes with the same
// communicator and sender always share a dispatch key, whatever their tags.
func DispatchKey(b Bits) Bits { return b &^ tagMask }

// ShardOf maps a match word to a shard index in [0, shards). The dispatch
// key is mixed through splitmix64's output function (sim.Mix64) so
// contexts and sources spread over shards even when their low bits are
// clustered (communicator ids and ranks are small dense integers). The function is
// pure: routing never depends on simulation state, which is what keeps
// fabric results identical at any partition count.
func ShardOf(b Bits, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(sim.Mix64(uint64(DispatchKey(b))) % uint64(shards))
}

// WildcardSource reports whether a receive mask leaves the source field
// unconstrained (MPI_ANY_SOURCE): such receives must be broadcast to every
// shard because any sender's traffic may satisfy them.
func WildcardSource(mask Bits) bool { return mask&srcMask != srcMask }
