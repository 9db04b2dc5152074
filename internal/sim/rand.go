package sim

// Rand is the splitmix64 generator behind every seeded fault stream: the
// network's wire faults, the ALPU device faults and the firmware crash
// stream. It is tiny, fast and bit-identical on every platform and Go
// version (math/rand's stream is version-stable, but this removes the
// dependency on that promise for the determinism checks). Each owner
// derives its own starting state from its seed, so streams stay
// independent of one another and of the partition layout.
type Rand struct{ state uint64 }

// NewRand returns a generator whose state starts at state; the first Next
// is Mix64(state + the splitmix64 increment).
func NewRand(state uint64) *Rand { return &Rand{state: state} }

// Mix64 is splitmix64's output function: a bijective scramble of z. It
// doubles as a stateless hash for decisions that must be a pure function
// of their inputs (link flaps, fabric shard routing).
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next advances the stream and returns its next 64-bit value.
func (r *Rand) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return Mix64(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n); 0 without a draw when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Chance reports true with probability p. A p <= 0 or p >= 1 decides
// without a draw, so disabled (or certain) fault classes leave the stream
// untouched.
func (r *Rand) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
