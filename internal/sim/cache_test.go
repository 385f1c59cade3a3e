package sim

import "testing"

func testConfig() Config {
	c := DefaultConfig(1)
	c.CacheSize = 128 // 4 lines of 32 bytes
	return c
}

func TestCacheFillLookup(t *testing.T) {
	c := newCache(testConfig())
	if c.lookup(1) != invalid {
		t.Error("empty cache reports resident block")
	}
	c.fill(1, shared, 0)
	if c.lookup(1) != shared {
		t.Error("filled block not shared")
	}
	c.setState(1, modified)
	if c.lookup(1) != modified {
		t.Error("upgrade not applied")
	}
}

func TestCacheConflictEviction(t *testing.T) {
	c := newCache(testConfig()) // 4 sets: blocks 1 and 5 collide
	c.fill(1, modified, 0)
	victim, dirty, evicted := c.fill(5, shared, 1)
	if !evicted || victim != 1 || !dirty {
		t.Fatalf("evicted=%v victim=%d dirty=%v", evicted, victim, dirty)
	}
	if c.lookup(1) != invalid || c.lookup(5) != shared {
		t.Error("post-eviction states wrong")
	}
	// Block 1 was evicted by context 1: a re-reference by context 0 is an
	// inter-thread conflict, by context 1 an intra-thread conflict.
	if k := c.classifyMiss(1, 0); k != ConflictInter {
		t.Errorf("classify by ctx0 = %v, want inter-thread conflict", k)
	}
	if k := c.classifyMiss(1, 1); k != ConflictIntra {
		t.Errorf("classify by ctx1 = %v, want intra-thread conflict", k)
	}
}

func TestCacheMissClassification(t *testing.T) {
	c := newCache(testConfig())
	if k := c.classifyMiss(7, 0); k != Compulsory {
		t.Errorf("first touch = %v, want compulsory", k)
	}
	c.fill(7, shared, 0)
	c.invalidate(7, 3)
	if k := c.classifyMiss(7, 0); k != InvalidationMiss {
		t.Errorf("after invalidation = %v, want invalidation", k)
	}
	if by, ok := c.invalidator(7); !ok || by != 3 {
		t.Errorf("invalidator = %d,%v, want 3,true", by, ok)
	}
}

func TestCacheInvalidateAbsent(t *testing.T) {
	c := newCache(testConfig())
	if present, _ := c.invalidate(9, 0); present {
		t.Error("invalidate of absent block reported present")
	}
}

func TestInfiniteCacheNeverEvicts(t *testing.T) {
	cfg := testConfig()
	cfg.InfiniteCache = true
	c := newCache(cfg)
	for b := uint64(0); b < 10000; b++ {
		if _, _, evicted := c.fill(b, shared, 0); evicted {
			t.Fatalf("infinite cache evicted at block %d", b)
		}
	}
	for b := uint64(0); b < 10000; b++ {
		if c.lookup(b) != shared {
			t.Fatalf("block %d lost", b)
		}
	}
	// Invalidation still works.
	c.invalidate(5, 2)
	if c.lookup(5) != invalid {
		t.Error("invalidation ignored")
	}
	if k := c.classifyMiss(5, 0); k != InvalidationMiss {
		t.Errorf("classify = %v, want invalidation", k)
	}
}

func TestCacheSetStatePanicsOnAbsent(t *testing.T) {
	c := newCache(testConfig())
	defer func() {
		if recover() == nil {
			t.Error("setState on absent block did not panic")
		}
	}()
	c.setState(3, modified)
}

func TestBlockMapping(t *testing.T) {
	c := newCache(testConfig()) // 32-byte lines
	if c.block(0) != 0 || c.block(31) != 0 || c.block(32) != 1 {
		t.Error("block mapping wrong")
	}
}

func TestDirectoryBitmap(t *testing.T) {
	d := newDirectory(130) // forces multi-word bitmaps
	e := d.entry(42)
	for _, p := range []int{0, 63, 64, 129} {
		e.add(p)
	}
	if e.count() != 4 {
		t.Errorf("count = %d, want 4", e.count())
	}
	var got []int
	e.others(64, func(q int) { got = append(got, q) })
	want := []int{0, 63, 129}
	if len(got) != len(want) {
		t.Fatalf("others = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("others = %v, want %v", got, want)
		}
	}
	e.remove(63)
	if e.has(63) || !e.has(0) {
		t.Error("remove broken")
	}
	e.clearSharers()
	if e.count() != 0 {
		t.Error("clear broken")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero procs", func(c *Config) { c.Processors = 0 }},
		{"line not power of two", func(c *Config) { c.LineSize = 24 }},
		{"line smaller than a word", func(c *Config) { c.LineSize = 1 }},
		{"cache smaller than line", func(c *Config) { c.CacheSize = 16 }},
		{"cache not multiple of line", func(c *Config) { c.CacheSize = 48 }},
		{"zero hit", func(c *Config) { c.HitCycles = 0 }},
		{"zero latency", func(c *Config) { c.MemLatency = 0 }},
		{"latency past 2^62", func(c *Config) { c.MemLatency = 1<<62 + 1 }},
		{"hit past 2^62", func(c *Config) { c.HitCycles = 1<<62 + 1 }},
		{"switch past 2^62", func(c *Config) { c.SwitchCycles = ^uint64(0) }},
		{"occupancy past 2^62", func(c *Config) { c.NetworkOccupancy = 1<<62 + 1 }},
	}
	for _, tc := range cases {
		c := DefaultConfig(4)
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Infinite cache ignores the cache-size checks.
	inf := DefaultConfig(2)
	inf.InfiniteCache = true
	inf.CacheSize = 0
	if err := inf.Validate(); err != nil {
		t.Errorf("infinite cache config rejected: %v", err)
	}
}

func TestMissKindString(t *testing.T) {
	names := map[MissKind]string{
		Compulsory:       "compulsory",
		ConflictIntra:    "intra-thread conflict",
		ConflictInter:    "inter-thread conflict",
		InvalidationMiss: "invalidation",
		MissKind(99):     "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
