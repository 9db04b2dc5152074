package cache

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func small() *Cache {
	return New(Config{Size: 1024, Assoc: 2, LineSize: 32}) // 16 sets x 2 ways
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if r := c.Access(0x100, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x11f, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x120, false); r.Hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (stride = numSets*line = 512).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // must evict b
	if !c.Probe(a) {
		t.Fatal("MRU line a was evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU line b survived")
	}
	if !c.Probe(d) {
		t.Fatal("newly filled line d missing")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small()
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false) // evicts line 0 (dirty)
	if !r.Writeback {
		t.Fatal("dirty eviction produced no writeback")
	}
	if r.Victim != 0 {
		t.Fatalf("writeback victim = %#x, want 0", r.Victim)
	}
	if c.Writebacks() != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks())
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(512, false)
	if r := c.Access(1024, false); r.Writeback {
		t.Fatal("clean eviction produced a writeback")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(0, true) // write hit dirties the line
	c.Access(512, false)
	if r := c.Access(1024, false); !r.Writeback {
		t.Fatal("line dirtied by write hit was evicted without writeback")
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	c := small()
	addrs := []uint64{0x40, 0x7c0, 0x12340}
	for _, a := range addrs {
		set, tag := c.index(a)
		base := c.victimAddr(set, tag)
		wantBase := a &^ uint64(c.cfg.LineSize-1)
		if base != wantBase {
			t.Errorf("victimAddr(index(%#x)) = %#x, want %#x", a, base, wantBase)
		}
	}
}

func TestWorkingSetFitsThenThrashes(t *testing.T) {
	// The phenomenon behind the paper's Fig. 5/6 knees: a working set that
	// fits is all hits on re-traversal; one that exceeds capacity with an
	// LRU-hostile sequential scan is all misses.
	c := New(Config{Size: 32 << 10, Assoc: 64, LineSize: 32}) // the NIC L1
	fits := 512                                               // 512 lines * 32B = 16K < 32K
	for i := 0; i < fits; i++ {
		c.Access(uint64(i*32), false)
	}
	h0 := c.Hits()
	for i := 0; i < fits; i++ {
		if r := c.Access(uint64(i*32), false); !r.Hit {
			t.Fatalf("re-traversal of fitting set missed at %d", i)
		}
	}
	if c.Hits()-h0 != uint64(fits) {
		t.Fatal("hit accounting wrong")
	}

	big := 2048 // 64K > 32K
	for i := 0; i < big; i++ {
		c.Access(uint64(0x100000+i*32), false)
	}
	missBefore := c.Misses()
	for i := 0; i < big; i++ {
		c.Access(uint64(0x100000+i*32), false)
	}
	if got := c.Misses() - missBefore; got != uint64(big) {
		t.Fatalf("sequential over-capacity re-scan missed %d of %d (true LRU should miss all)", got, big)
	}
}

func TestHitRate(t *testing.T) {
	c := small()
	if c.HitRate() != 1 {
		t.Fatal("empty cache HitRate != 1")
	}
	c.Access(0, false)
	c.Access(0, false)
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		msg  string // the panic message must contain it
	}{
		{"zero line size", Config{Size: 1024, Assoc: 2, LineSize: 0}, "bad config"},
		{"zero assoc", Config{Size: 1024, Assoc: 0, LineSize: 32}, "bad config"},
		{"zero size", Config{Size: 0, Assoc: 2, LineSize: 32}, "bad config"},
		{"line size not a power of two", Config{Size: 960, Assoc: 2, LineSize: 48}, "line size 48"},
		{"size not whole lines", Config{Size: 1040, Assoc: 2, LineSize: 32}, "size 1040"},
		{"lines not whole sets", Config{Size: 96, Assoc: 2, LineSize: 32}, "3 lines"},
		{"set count not a power of two", Config{Size: 3 * 4 * 32, Assoc: 4, LineSize: 32}, "set count 3 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New(%+v) did not panic", tc.cfg)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.msg) {
					t.Fatalf("New(%+v) panicked with %q, want it to name %q", tc.cfg, msg, tc.msg)
				}
			}()
			New(tc.cfg)
		})
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and Probe agrees with a shadow model of per-set LRU.
func TestLRUShadowModelProperty(t *testing.T) {
	type shadowSet struct{ order []uint64 } // front = LRU
	f := func(seed int64, ops []uint16) bool {
		cfg := Config{Size: 512, Assoc: 2, LineSize: 32} // 8 sets
		c := New(cfg)
		numSets := 8
		shadow := make([]shadowSet, numSets)
		rng := rand.New(rand.NewSource(seed))
		for range ops {
			addr := uint64(rng.Intn(64)) * 32
			set := int(addr / 32 % uint64(numSets))
			tag := addr / 32 / uint64(numSets)
			c.Access(addr, rng.Intn(2) == 0)
			s := &shadow[set]
			for i, v := range s.order {
				if v == tag {
					s.order = append(append(s.order[:i], s.order[i+1:]...), tag)
					goto updated
				}
			}
			if len(s.order) == cfg.Assoc {
				s.order = s.order[1:]
			}
			s.order = append(s.order, tag)
		updated:
		}
		// Cross-check every modelled address.
		for a := uint64(0); a < 64*32; a += 32 {
			set := int(a / 32 % uint64(numSets))
			tag := a / 32 / uint64(numSets)
			inShadow := false
			for _, v := range shadow[set].order {
				if v == tag {
					inShadow = true
				}
			}
			if c.Probe(a) != inShadow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the eager cache model the lazily backed Cache replaced: every
// line allocated up front at 24 bytes, with separate valid and dirty flags
// and an LRU stamp, and a full-set hit scan. It is kept as the oracle for
// TestCacheMatchesReference.
type refCache struct {
	cfg     Config
	sets    [][]refLine
	numSets int
	ticks   uint64
	rng     uint64

	accesses   uint64
	hits       uint64
	writebacks uint64
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRef(cfg Config) *refCache {
	lines := cfg.Size / cfg.LineSize
	numSets := lines / cfg.Assoc
	sets := make([][]refLine, numSets)
	backing := make([]refLine, lines)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &refCache{cfg: cfg, sets: sets, numSets: numSets, rng: 0x9e3779b97f4a7c15}
}

func (c *refCache) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func (c *refCache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	return int(lineAddr % uint64(c.numSets)), lineAddr / uint64(c.numSets)
}

func (c *refCache) access(addr uint64, write bool) Result {
	c.accesses++
	c.ticks++
	setIdx, tag := c.index(addr)
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.hits++
			set[i].lru = c.ticks
			if write {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		if c.cfg.Policy == Random {
			victim = int(c.nextRand() % uint64(len(set)))
		} else {
			victim = 0
			for i := range set {
				if set[i].lru < set[victim].lru {
					victim = i
				}
			}
		}
	}
	res := Result{}
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		res.Victim = (set[victim].tag*uint64(c.numSets) + uint64(setIdx)) * uint64(c.cfg.LineSize)
		c.writebacks++
	}
	set[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.ticks}
	return res
}

func (c *refCache) probe(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Every geometry the simulator builds: the host L1 and L2 and the NIC L1
// of params.HostCPU/NICCPU, and the fabric's dispatch cache.
var geometries = []struct {
	name string
	cfg  Config
}{
	{"host-l1", Config{Size: 64 << 10, Assoc: 2, LineSize: 64, Policy: LRU}},
	{"host-l2", Config{Size: 512 << 10, Assoc: 8, LineSize: 64, Policy: LRU}},
	{"nic-l1", Config{Size: 32 << 10, Assoc: 64, LineSize: 32, Policy: Random}},
	{"dispatch", Config{Size: 512, Assoc: 4, LineSize: 8, Policy: LRU}},
}

// oddGeometries do not fill whole 8-way fingerprint words: a 12-way set
// spans one and a half words, a 1-way set one byte of one.
var oddGeometries = []struct {
	name string
	cfg  Config
}{
	{"12-way", Config{Size: 16 * 12 * 32, Assoc: 12, LineSize: 32, Policy: Random}},
	{"12-way-lru", Config{Size: 16 * 12 * 32, Assoc: 12, LineSize: 32, Policy: LRU}},
	{"1-way", Config{Size: 64 * 32, Assoc: 1, LineSize: 32, Policy: LRU}},
}

// A stream draws the line number of each access. It also returns the lines
// it can touch outside the first three capacities, which Probe checks too.
type stream func(cfg Config, rng *rand.Rand) (next func() int, extra []int)

// mixedStream puts half the accesses in a hot range that fits in the cache
// and half anywhere in three times its capacity, so it mixes hits, clean
// and dirty evictions and (for Random) victim draws.
func mixedStream(cfg Config, rng *rand.Rand) (func() int, []int) {
	lines := cfg.Size / cfg.LineSize
	return func() int {
		l := rng.Intn(3 * lines)
		if rng.Intn(2) == 0 {
			l = rng.Intn(lines / 2)
		}
		return l
	}, nil
}

// aliasStream confines every access to one set and to twice its ways'
// worth of tags that share their low seven bits, so any fingerprint taken
// from a tag's low byte collides: a lookup must tell the lines apart by
// their full tags, through hits and clean and dirty evictions alike.
func aliasStream(cfg Config, rng *rand.Rand) (func() int, []int) {
	sets := cfg.Size / cfg.LineSize / cfg.Assoc
	set := 5 % sets
	pool := make([]int, 2*cfg.Assoc)
	for i := range pool {
		tag := i<<7 | 0x2a
		pool[i] = tag*sets + set
	}
	return func() int { return pool[rng.Intn(len(pool))] }, pool
}

// TestCacheMatchesReference replays seeded random read/write streams on the
// Cache and on refCache side by side. Every Result, the stats and Probe over
// the whole address range must agree, before the first access as well as
// during and after the stream.
func TestCacheMatchesReference(t *testing.T) {
	streams := []struct {
		name string
		gen  stream
	}{{"mixed", mixedStream}, {"alias", aliasStream}}
	for _, g := range append(geometries[:len(geometries):len(geometries)], oddGeometries...) {
		t.Run(g.name, func(t *testing.T) {
			for _, st := range streams {
				t.Run(st.name, func(t *testing.T) {
					lines := g.cfg.Size / g.cfg.LineSize
					ls := uint64(g.cfg.LineSize)
					for seed := int64(1); seed <= 3; seed++ {
						c, ref := New(g.cfg), newRef(g.cfg)
						rng := rand.New(rand.NewSource(seed))
						next, extra := st.gen(g.cfg, rng)
						var probed []int
						for l := 0; l < 3*lines; l++ {
							probed = append(probed, l)
						}
						probed = append(probed, extra...)
						check := func(when string) {
							t.Helper()
							if c.Accesses() != ref.accesses || c.Hits() != ref.hits || c.Writebacks() != ref.writebacks {
								t.Fatalf("seed %d %s: stats %d/%d/%d, reference %d/%d/%d", seed, when,
									c.Accesses(), c.Hits(), c.Writebacks(), ref.accesses, ref.hits, ref.writebacks)
							}
							for _, l := range probed {
								a := uint64(l) * ls
								if c.Probe(a) != ref.probe(a) {
									t.Fatalf("seed %d %s: Probe(%#x) = %v, reference %v", seed, when, a, c.Probe(a), ref.probe(a))
								}
							}
						}
						check("before the first access")
						if c.lines != nil {
							t.Fatalf("seed %d: Probe and stats backed the cache", seed)
						}
						if c.HitRate() != 1 {
							t.Fatalf("seed %d: HitRate before the first access = %v, want 1", seed, c.HitRate())
						}
						n := 4 * lines
						for i := 0; i < n; i++ {
							addr := uint64(next())*ls + uint64(rng.Intn(g.cfg.LineSize))
							write := rng.Intn(3) == 0
							if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
								t.Fatalf("seed %d access %d (%#x, write %v): %+v, reference %+v", seed, i, addr, write, got, want)
							}
							if i == n/2 {
								check("mid-stream")
							}
						}
						check("after the stream")
						if ref.writebacks == 0 || ref.hits == 0 || ref.hits == ref.accesses {
							t.Fatalf("seed %d: stream exercised too little: %d hits, %d writebacks of %d accesses",
								seed, ref.hits, ref.writebacks, ref.accesses)
						}
					}
				})
			}
		})
	}
}

// TestBackedOnFirstAccess pins what a cache costs: the host L2 allocates
// under 1 KB until its first Access, which backs it at 17 bytes a line,
// 16 of line state and a fingerprint byte.
func TestBackedOnFirstAccess(t *testing.T) {
	if sz := unsafe.Sizeof(line{}); sz != 16 {
		t.Fatalf("line is %d bytes, want 16", sz)
	}
	cfg := geometries[1].cfg
	lines := uint64(cfg.Size / cfg.LineSize)
	if d := allocated(func() {
		c := New(cfg)
		c.Probe(0x1000)
		_ = c.HitRate() + float64(c.Accesses()+c.Hits()+c.Misses()+c.Writebacks())
	}); d >= 1024 {
		t.Fatalf("New and reads of an untouched host L2 allocated %d bytes, want < 1024", d)
	}
	if d := allocated(func() { New(cfg).Access(0x1000, false) }); d < 16*lines || d >= 24*lines {
		t.Fatalf("New and a first Access allocated %d bytes, want [%d, %d)", d, 16*lines, 24*lines)
	}
}

// allocated reports the fewest bytes f allocated over five runs: other
// goroutines in the test binary can only add to a run's count.
func allocated(f func()) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}
