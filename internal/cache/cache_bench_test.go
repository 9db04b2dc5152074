package cache

import "testing"

// The dispatch-cache geometry the NIC fabric uses (nic/fabric.go): 64
// lines, 4-way, LRU. The hit path is the common case for Zipf-skewed
// tenancy traffic; the miss path is the streaming worst case.

func dispatchGeometry() Config {
	return Config{Size: 512, LineSize: 8, Assoc: 4, Policy: LRU}
}

func BenchmarkCacheDispatchHit(b *testing.B) {
	c := New(dispatchGeometry())
	c.Access(0x900_0000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x900_0000, false)
	}
	// Every timed access must hit; only the one warm-up access may miss.
	if c.Hits() != uint64(b.N) {
		b.Fatalf("hit benchmark missed: %d hits over %d timed accesses", c.Hits(), b.N)
	}
}

func BenchmarkCacheDispatchMiss(b *testing.B) {
	c := New(dispatchGeometry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride of one line per set sweep: every access conflicts out a
		// resident line, so the cache never hits.
		c.Access(0x900_0000+uint64(i)*8*64, false)
	}
	if c.Hits() != 0 {
		b.Fatalf("miss benchmark hit %d times", c.Hits())
	}
}

// BenchmarkCacheNICL1 times the NIC L1 geometry (params.NICCPU: 32 K,
// 64-way, 32-byte lines, Random), whose 64-way sets every firmware queue
// walk searches. Both cases start from a full cache. The hit case cycles
// through the resident lines, so hits land at every way; the miss case
// streams fresh lines, so every access misses a full set and evicts.
func BenchmarkCacheNICL1(b *testing.B) {
	cfg := Config{Size: 32 << 10, Assoc: 64, LineSize: 32, Policy: Random}
	lines := cfg.Size / cfg.LineSize
	full := func() *Cache {
		c := New(cfg)
		for l := 0; l < lines; l++ {
			c.Access(uint64(l*cfg.LineSize), false)
		}
		return c
	}
	b.Run("hit", func(b *testing.B) {
		c := full()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%lines*cfg.LineSize), false)
		}
		if c.Hits() != uint64(b.N) {
			b.Fatalf("hit benchmark missed: %d hits over %d timed accesses", c.Hits(), b.N)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := full()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64((lines+i)*cfg.LineSize), false)
		}
		if c.Hits() != 0 {
			b.Fatalf("miss benchmark hit %d times", c.Hits())
		}
	})
}
