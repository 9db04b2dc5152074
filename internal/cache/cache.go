// Package cache implements a set-associative, write-back, write-allocate
// cache model with true-LRU replacement. It models state only (hit/miss and
// writeback traffic); timing is composed by internal/memsys using the
// Table III latencies.
package cache

import "fmt"

// Policy selects the replacement policy.
type Policy int

const (
	// LRU is exact least-recently-used (the host processor model).
	LRU Policy = iota
	// Random is deterministic pseudo-random victim selection, as embedded
	// parts of the PPC440 era used (round-robin/pseudo-random). Unlike
	// exact LRU it degrades gradually when a looping working set exceeds
	// capacity, which is the behaviour behind the paper's Fig. 5/6 cache
	// knees.
	Random
)

// Config describes a cache's geometry.
type Config struct {
	Size     int // total bytes
	Assoc    int // ways
	LineSize int // bytes
	Policy   Policy
}

// line is one way's state in 16 bytes. stamp is the tick of the line's
// last use (larger = more recently used) and zero for an invalid line,
// since ticks start at 1; its top bit is the dirty flag.
type line struct {
	tag   uint64
	stamp uint64
}

const dirtyBit = uint64(1) << 63

// Cache is a single level of set-associative cache. Its line state is
// allocated on the first Access, so a cache nothing touches costs only
// its header; until then every line reads as invalid.
type Cache struct {
	cfg     Config
	lines   []line // numSets*Assoc ways, set-major; nil until the first Access
	numSets int
	ticks   uint64
	rng     uint64 // xorshift state for Random replacement (deterministic)

	// Stats.
	accesses   uint64
	hits       uint64
	writebacks uint64
}

// New returns an empty cache. It panics on a geometry it cannot model —
// a non-positive field, a line size that is not a power of two, or a
// size that does not divide into whole sets — since that is a
// configuration bug.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", cfg.LineSize))
	}
	if cfg.Size%cfg.LineSize != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by line size %d", cfg.Size, cfg.LineSize))
	}
	lines := cfg.Size / cfg.LineSize
	if lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by assoc %d", lines, cfg.Assoc))
	}
	return &Cache{cfg: cfg, numSets: lines / cfg.Assoc, rng: 0x9e3779b97f4a7c15}
}

// nextRand is a deterministic xorshift64 step.
func (c *Cache) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; Victim is the
	// address of its first byte.
	Writeback bool
	Victim    uint64
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	return int(lineAddr % uint64(c.numSets)), lineAddr / uint64(c.numSets)
}

// set returns the ways of set s; the cache must be backed.
func (c *Cache) set(s int) []line {
	a := c.cfg.Assoc
	return c.lines[s*a : s*a+a : s*a+a]
}

// Access looks up addr, allocating on miss, and returns what happened.
func (c *Cache) Access(addr uint64, write bool) Result {
	if c.lines == nil {
		c.lines = make([]line, c.numSets*c.cfg.Assoc)
	}
	c.accesses++
	c.ticks++
	setIdx, tag := c.index(addr)
	set := c.set(setIdx)
	var dirty uint64
	if write {
		dirty = dirtyBit
	}

	// A miss fills the first invalid way and no line is ever invalidated,
	// so a set's valid ways are a prefix: the scan for a hit ends at the
	// first invalid way, which is also the victim.
	victim := -1
	for i := range set {
		if set[i].stamp == 0 {
			victim = i
			break
		}
		if set[i].tag == tag {
			c.hits++
			set[i].stamp = c.ticks | set[i].stamp&dirtyBit | dirty
			return Result{Hit: true}
		}
	}
	if victim < 0 {
		if c.cfg.Policy == Random {
			victim = int(c.nextRand() % uint64(len(set)))
		} else {
			victim = 0
			for i := range set {
				if set[i].stamp&^dirtyBit < set[victim].stamp&^dirtyBit {
					victim = i
				}
			}
		}
	}
	res := Result{}
	if set[victim].stamp&dirtyBit != 0 {
		res.Writeback = true
		res.Victim = c.victimAddr(setIdx, set[victim].tag)
		c.writebacks++
	}
	set[victim] = line{tag: tag, stamp: c.ticks | dirty}
	return res
}

// Probe reports whether addr is present without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	if c.lines == nil {
		return false
	}
	setIdx, tag := c.index(addr)
	for _, l := range c.set(setIdx) {
		if l.stamp != 0 && l.tag == tag {
			return true
		}
	}
	return false
}

// victimAddr reconstructs a line's base address from its set and tag.
func (c *Cache) victimAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.numSets) + uint64(set)) * uint64(c.cfg.LineSize)
}

// Accesses reports the total number of lookups.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Hits reports the number of lookups that hit.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses reports the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.accesses - c.hits }

// Writebacks reports how many dirty victims were evicted.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// HitRate returns hits/accesses (1.0 when there were no accesses).
func (c *Cache) HitRate() float64 {
	if c.accesses == 0 {
		return 1
	}
	return float64(c.hits) / float64(c.accesses)
}
