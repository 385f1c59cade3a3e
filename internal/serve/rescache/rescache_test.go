package rescache

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

func testConfig() sim.Config { return sim.DefaultConfig(4) }

// TestKeyDeterministic: equal inputs hash to equal keys, across calls.
func TestKeyDeterministic(t *testing.T) {
	a := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig())
	b := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig())
	if a != b {
		t.Fatalf("same cell hashed to different keys: %s vs %s", a, b)
	}
	if len(a.String()) != 64 {
		t.Fatalf("key hex length = %d, want 64", len(a.String()))
	}
}

// TestKeyGolden pins KeyOf's bytes: MTS1 stores persist results under
// these addresses, so a change here would silently cold-start every
// store written before it.
func TestKeyGolden(t *testing.T) {
	const want = "691a9dc26c6f96dec12a0a8e489316e8d020a56a26f567ae49bacf2e8c204694"
	if got := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig()).String(); got != want {
		t.Errorf("KeyOf bytes moved:\n  got  %s\n  want %s", got, want)
	}
}

// TestKeySensitivity: changing any single input changes the key. A cache
// collision between distinct cells would silently serve wrong results, so
// every field of the canonical encoding is exercised.
func TestKeySensitivity(t *testing.T) {
	base := KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig())
	seen := map[Key]string{base: "base"}
	add := func(name string, k Key) {
		t.Helper()
		if prev, ok := seen[k]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
	add("scale", KeyOf(0.5, 1994, "MP3D", "LOAD-BAL|0,1|2,3", testConfig()))
	add("seed", KeyOf(1, 1, "MP3D", "LOAD-BAL|0,1|2,3", testConfig()))
	add("app", KeyOf(1, 1994, "FFT", "LOAD-BAL|0,1|2,3", testConfig()))
	add("placement", KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,2|1,3", testConfig()))

	mutate := []func(*sim.Config){
		func(c *sim.Config) { c.Processors = 8 },
		func(c *sim.Config) { c.MaxContexts = 2 },
		func(c *sim.Config) { c.CacheSize *= 2 },
		func(c *sim.Config) { c.Associativity = 2 },
		func(c *sim.Config) { c.LineSize *= 2 },
		func(c *sim.Config) { c.HitCycles = 2 },
		func(c *sim.Config) { c.MemLatency = 100 },
		func(c *sim.Config) { c.SwitchCycles = 12 },
		func(c *sim.Config) { c.Protocol = sim.Update },
		func(c *sim.Config) { c.NetworkChannels = 4 },
		func(c *sim.Config) { c.NetworkOccupancy = 16 },
		func(c *sim.Config) { c.TrackWriteRuns = true },
		func(c *sim.Config) { c.InfiniteCache = true },
	}
	if len(mutate) != KeyConfigFields {
		t.Fatalf("test mutates %d config fields, KeyConfigFields = %d", len(mutate), KeyConfigFields)
	}
	for i, m := range mutate {
		cfg := testConfig()
		m(&cfg)
		add(reflect.TypeOf(sim.Config{}).Field(i).Name, KeyOf(1, 1994, "MP3D", "LOAD-BAL|0,1|2,3", cfg))
	}
}

// TestKeyConfigFieldCount pins the canonical encoding to sim.Config's
// field list: growing Config without extending KeyOf must fail here.
func TestKeyConfigFieldCount(t *testing.T) {
	if n := reflect.TypeOf(sim.Config{}).NumField(); n != KeyConfigFields {
		t.Fatalf("sim.Config has %d fields but rescache.KeyOf encodes %d; extend the canonical encoding (and bump its version tag) before shipping", n, KeyConfigFields)
	}
}

// TestSumStringsBoundaries: the part boundaries are part of the hash, so
// ["ab","c"] and ["a","bc"] must not collide.
func TestSumStringsBoundaries(t *testing.T) {
	if SumStrings("sweep", "ab", "c") == SumStrings("sweep", "a", "bc") {
		t.Fatal("SumStrings collides across part boundaries")
	}
	if SumStrings("sweep", "a") == SumStrings("job", "a") {
		t.Fatal("SumStrings ignores its label")
	}
	if SumStrings("sweep", "a", "b") != SumStrings("sweep", "a", "b") {
		t.Fatal("SumStrings is not deterministic")
	}
}

func key(i int) Key {
	return SumStrings("test-key", string(rune('a'+i%26)), string(rune('0'+i/26)))
}

// TestCacheLRU: eviction order is least-recently-used, Get promotes.
func TestCacheLRU(t *testing.T) {
	c := New(2)
	r1, r2, r3 := &sim.Result{ExecTime: 1}, &sim.Result{ExecTime: 2}, &sim.Result{ExecTime: 3}
	c.Put(key(1), r1)
	c.Put(key(2), r2)
	if got := c.Get(key(1)); got != r1 {
		t.Fatalf("Get(1) = %v, want r1", got)
	}
	c.Put(key(3), r3) // evicts key(2): key(1) was just touched
	if got := c.Get(key(2)); got != nil {
		t.Fatalf("key 2 should have been evicted, got %v", got)
	}
	if got := c.Get(key(1)); got != r1 {
		t.Fatal("promoted entry was evicted instead of LRU")
	}
	if got := c.Get(key(3)); got != r3 {
		t.Fatal("newest entry missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, capacity 2, 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 1 miss", st)
	}
}

// TestCachePeek: Peek finds an entry without counting a hit or a miss
// and without promoting it.
func TestCachePeek(t *testing.T) {
	c := New(2)
	r1, r2 := &sim.Result{ExecTime: 1}, &sim.Result{ExecTime: 2}
	c.Put(key(1), r1)
	c.Put(key(2), r2)
	if got := c.Peek(key(1)); got != r1 {
		t.Fatalf("Peek(1) = %v, want r1", got)
	}
	if got := c.Peek(key(3)); got != nil {
		t.Fatalf("Peek(3) = %v, want nil", got)
	}
	c.Put(key(3), &sim.Result{ExecTime: 3}) // evicts key(1): Peek did not promote it
	if got := c.Peek(key(1)); got != nil {
		t.Fatal("Peek promoted the entry it read")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want no hits or misses", st)
	}
}

// TestCachePutUpdates: re-putting an existing key replaces the value
// without growing the cache.
func TestCachePutUpdates(t *testing.T) {
	c := New(4)
	c.Put(key(1), &sim.Result{ExecTime: 1})
	r2 := &sim.Result{ExecTime: 2}
	c.Put(key(1), r2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put, want 1", c.Len())
	}
	if got := c.Get(key(1)); got != r2 {
		t.Fatal("Put did not replace the stored result")
	}
}

// TestCacheChurn: fill far past capacity, then verify the cache holds
// exactly the most recent entries and the free list recycles slots
// (bounded memory).
func TestCacheChurn(t *testing.T) {
	const capacity, total = 8, 200
	c := New(capacity)
	for i := 0; i < total; i++ {
		c.Put(key(i), &sim.Result{ExecTime: uint64(i)})
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
	for i := total - capacity; i < total; i++ {
		got := c.Get(key(i))
		if got == nil || got.ExecTime != uint64(i) {
			t.Fatalf("recent entry %d missing or wrong: %v", i, got)
		}
	}
	if len(c.slots) > capacity+1 {
		t.Fatalf("slot backing grew to %d for capacity %d: free list not recycling", len(c.slots), capacity)
	}
}

// TestCacheConcurrent hammers Get/Put from many goroutines; run under
// -race this is the data-race proof for the serving hot path.
func TestCacheConcurrent(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key((g*31 + i) % 40)
				if res := c.Get(k); res == nil {
					c.Put(k, &sim.Result{ExecTime: uint64(i)})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
