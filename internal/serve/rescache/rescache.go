// Package rescache is mtserve's content-addressed result cache: a
// bounded LRU keyed by a canonical SHA-256 hash of everything that
// determines a simulation result — workload generation parameters, the
// exact placement and the full simulator configuration.
// Because the simulator is deterministic, two requests with equal keys
// would compute bit-identical results; the cache returns the first
// computation's *sim.Result (shared, read-only) instead.
//
// The package mirrors core.Suite's memoization discipline (exact,
// collision-free cell identity — never a lossy summary) but bounds the
// footprint: core.Suite may grow without limit inside one sweep process,
// a long-lived server may not.
//
// rescache is inside the determinism analyzers' purview: key derivation
// must never read the wall clock or a global random source, and must
// never feed map iteration order into the hash. The lookup path is
// hotpath-annotated — a cache hit on the serving path performs no
// allocation.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Key is the canonical content address of one simulation cell.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the form the HTTP API reports.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyConfigFields is the number of sim.Config fields KeyOf folds into the
// hash. A test asserts it against reflect.TypeOf(sim.Config{}).NumField()
// so adding a Config field without extending the canonical encoding is a
// build-stopping event, not a silent cache collision.
const KeyConfigFields = 13

// EngineLabel is the engine field every content address still carries.
// Cells were once simulated on a selectable engine; "guarded", the former
// default label, is now a fixed literal so that existing MTS1 stores, MTJ1
// journals, sweep job IDs and cluster shard affinity keep their bytes.
const EngineLabel = "guarded"

// KeyOf derives the content address of one cell. Every input that can
// change the simulation result is folded into the hash in a fixed order
// with explicit field tags and NUL separators, so no two distinct cells
// can produce the same pre-image. placementKey must be an exact placement
// encoding (core.PlacementKey), not a lossy name.
func KeyOf(scale float64, seed int64, app, placementKey string, cfg sim.Config) Key {
	h := sha256.New()
	fmt.Fprintf(h, "mtserve-cell-v1\x00scale=%g\x00seed=%d\x00app=%s\x00pl=%s\x00", scale, seed, app, placementKey)
	fmt.Fprintf(h, "procs=%d\x00maxctx=%d\x00cachesize=%d\x00assoc=%d\x00line=%d\x00hit=%d\x00mem=%d\x00switch=%d\x00proto=%s\x00chans=%d\x00occ=%d\x00writeruns=%t\x00infcache=%t\x00",
		cfg.Processors, cfg.MaxContexts, cfg.CacheSize, cfg.Associativity,
		cfg.LineSize, cfg.HitCycles, cfg.MemLatency, cfg.SwitchCycles,
		cfg.Protocol, cfg.NetworkChannels, cfg.NetworkOccupancy,
		cfg.TrackWriteRuns, cfg.InfiniteCache)
	fmt.Fprintf(h, "engine=%s", EngineLabel)
	var k Key
	h.Sum(k[:0])
	return k
}

// SumStrings hashes a labeled, ordered list of strings into a Key. The
// server uses it to derive content-addressed job IDs from sweep requests:
// the same sweep resubmitted (to this server or a restarted one) maps to
// the same job. Callers must pass parts in a canonical order.
func SumStrings(label string, parts ...string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00n=%d\x00", label, len(parts))
	for _, p := range parts {
		fmt.Fprintf(h, "len=%d\x00%s\x00", len(p), p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// slot is one cache entry threaded on an index-based doubly-linked LRU
// list (no per-operation allocation: container/list would box every
// element).
type slot struct {
	key        Key
	res        *sim.Result
	prev, next int32
}

const nilIdx = int32(-1)

// Cache is the bounded LRU. Safe for concurrent use. Stored results are
// shared between callers and must be treated as read-only — the same
// contract core.Suite documents for its memoized cells.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	index     map[Key]int32
	slots     []slot
	head      int32 // most recently used
	tail      int32 // least recently used
	freeList  int32 // chain of evicted slots, linked through next
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		index:    make(map[Key]int32, capacity),
		slots:    make([]slot, 0, min(capacity, 1024)),
		head:     nilIdx,
		tail:     nilIdx,
		freeList: nilIdx,
	}
}

// Get returns the cached result for k, promoting it to most recently
// used, or nil on a miss. This is the serving layer's per-request fast
// path: map probe, pointer swizzle, no allocation, no defer.
//
//mtlint:hotpath
func (c *Cache) Get(k Key) *sim.Result {
	c.mu.Lock()
	idx, ok := c.index[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.hits++
	c.moveToFront(idx)
	res := c.slots[idx].res
	c.mu.Unlock()
	return res
}

// moveToFront unlinks slot idx and relinks it at the head. Caller holds
// the lock.
//
//mtlint:hotpath
func (c *Cache) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	c.unlink(idx)
	c.slots[idx].prev = nilIdx
	c.slots[idx].next = c.head
	if c.head != nilIdx {
		c.slots[c.head].prev = idx
	}
	c.head = idx
	if c.tail == nilIdx {
		c.tail = idx
	}
}

// unlink removes slot idx from the LRU list. Caller holds the lock.
//
//mtlint:hotpath
func (c *Cache) unlink(idx int32) {
	s := &c.slots[idx]
	if s.prev != nilIdx {
		c.slots[s.prev].next = s.next
	}
	if s.next != nilIdx {
		c.slots[s.next].prev = s.prev
	}
	if c.head == idx {
		c.head = s.next
	}
	if c.tail == idx {
		c.tail = s.prev
	}
	s.prev, s.next = nilIdx, nilIdx
}

// Put stores res under k (promoting an existing entry in place) and
// evicts the least recently used entry once the cache is over capacity.
func (c *Cache) Put(k Key, res *sim.Result) {
	if res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx, ok := c.index[k]; ok {
		c.slots[idx].res = res
		c.moveToFront(idx)
		return
	}
	var idx int32
	if c.freeList != nilIdx {
		idx = c.freeList
		c.freeList = c.slots[idx].next
	} else {
		c.slots = append(c.slots, slot{})
		idx = int32(len(c.slots) - 1)
	}
	c.slots[idx] = slot{key: k, res: res, prev: nilIdx, next: nilIdx}
	c.index[k] = idx
	c.moveToFront(idx)
	for len(c.index) > c.capacity {
		c.evictTail()
	}
}

// evictTail drops the least recently used entry. Caller holds the lock.
func (c *Cache) evictTail() {
	idx := c.tail
	if idx == nilIdx {
		return
	}
	c.unlink(idx)
	delete(c.index, c.slots[idx].key)
	c.slots[idx].res = nil
	c.slots[idx].next = c.freeList
	c.freeList = idx
	c.evictions++
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.index),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
