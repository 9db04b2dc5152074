// Package cache implements a set-associative, write-back, write-allocate
// cache model with true-LRU replacement. It models state only (hit/miss and
// writeback traffic); timing is composed by internal/memsys using the
// Table III latencies.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

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

// Each way also has a one-byte fingerprint: its tag's low seven bits with
// the top bit set, or zero while the way is invalid. The fingerprints take
// a byte a line, in the lines' order, so a lookup reads a set's ways eight
// at a time as one little-endian word and compares them with one XOR and a
// zero-byte test. A word may run past its set into the next set's bytes,
// or into the seven bytes of slack after the last set; the lookup ignores
// the ways it finds there.
const (
	lowBytes  = 0x0101010101010101
	highBits  = 0x8080808080808080
	wordBytes = 8
)

func fingerprint(tag uint64) byte { return byte(tag) | 0x80 }

// Cache is a single level of set-associative cache. Its line state is
// allocated on the first Access, so a cache nothing touches costs only
// its header; until then every line reads as invalid.
type Cache struct {
	cfg       Config
	lines     []line // numSets*Assoc ways, set-major; nil until the first Access
	fps       []byte // a fingerprint per way in lines' order, then 7 bytes of slack
	lineShift uint   // log2(LineSize)
	setShift  uint   // log2(numSets)
	ticks     uint64
	rng       uint64 // xorshift state for Random replacement (deterministic)

	// Stats.
	accesses   uint64
	hits       uint64
	writebacks uint64
}

// New returns an empty cache. It panics on a geometry it cannot model —
// a non-positive field, a line size or set count that is not a power of
// two, or a size that does not divide into whole sets — since that is a
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
	sets := lines / cfg.Assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", sets))
	}
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		rng:       0x9e3779b97f4a7c15,
	}
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
	lineAddr := addr >> (c.lineShift & 63)
	return int(lineAddr & (1<<(c.setShift&63) - 1)), lineAddr >> (c.setShift & 63)
}

// lookup searches set s for tag; the cache must be backed. On a hit it
// returns the way holding tag. On a miss it returns the first invalid way,
// or -1 when every way is valid: a miss fills the first invalid way and no
// line is ever invalidated, so a set's valid ways are a prefix, and the
// search ends at the first word that holds an invalid way.
//
// (x - lowBytes) &^ x & highBits marks each zero byte of x, which is each
// way whose fingerprint equals tag's. It can also mark a byte of 1 above a
// zero byte, a fingerprint that differs from tag's in its low bit only;
// the full-tag compare rejects that way. It never marks an invalid way:
// its zero byte XORs to a byte with the top bit set.
func (c *Cache) lookup(s int, tag uint64) (way int, hit bool) {
	a := c.cfg.Assoc
	base := s * a
	want := uint64(fingerprint(tag)) * lowBytes
	for w := 0; w < a; w += wordBytes {
		word := binary.LittleEndian.Uint64(c.fps[base+w:])
		x := word ^ want
		for m := (x - lowBytes) &^ x & highBits; m != 0; m &= m - 1 {
			if i := w + bits.TrailingZeros64(m)/8; i < a && c.lines[base+i].tag == tag {
				return i, true
			}
		}
		if free := ^word & highBits; free != 0 {
			if i := w + bits.TrailingZeros64(free)/8; i < a {
				return i, false
			}
		}
	}
	return -1, false
}

// Access looks up addr, allocating on miss, and returns what happened.
func (c *Cache) Access(addr uint64, write bool) Result {
	if c.lines == nil {
		n := c.cfg.Assoc << c.setShift
		c.lines = make([]line, n)
		c.fps = make([]byte, n+wordBytes-1)
	}
	c.accesses++
	c.ticks++
	setIdx, tag := c.index(addr)
	var dirty uint64
	if write {
		dirty = dirtyBit
	}

	victim, hit := c.lookup(setIdx, tag)
	a := c.cfg.Assoc
	if hit {
		c.hits++
		l := &c.lines[setIdx*a+victim]
		l.stamp = c.ticks | l.stamp&dirtyBit | dirty
		return Result{Hit: true}
	}
	set := c.lines[setIdx*a : setIdx*a+a]
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
	c.fps[setIdx*a+victim] = fingerprint(tag)
	return res
}

// Probe reports whether addr is present without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	if c.lines == nil {
		return false
	}
	_, hit := c.lookup(c.index(addr))
	return hit
}

// victimAddr reconstructs a line's base address from its set and tag.
func (c *Cache) victimAddr(set int, tag uint64) uint64 {
	return (tag<<(c.setShift&63) | uint64(set)) << (c.lineShift & 63)
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
