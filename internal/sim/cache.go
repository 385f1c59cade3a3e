package sim

// lineState is the MSI state of a cache line.
type lineState uint8

const (
	invalid lineState = iota
	shared
	modified
)

func (s lineState) String() string {
	switch s {
	case shared:
		return "S"
	case modified:
		return "M"
	}
	return "I"
}

// goneReason records why a block is no longer resident, for miss
// classification on the next access.
type goneReason struct {
	// invalidated is true when a remote write removed the block.
	invalidated bool
	// by is the evicting thread's context index (for conflicts) or the
	// invalidating processor (for invalidations).
	by int32
}

// line is one cache way.
type line struct {
	tag   uint64
	state lineState
}

// cache is one processor's set-associative (LRU) or infinite data cache.
// Tags are full block addresses (addr >> lineShift). The paper simulates
// direct-mapped caches (associativity 1) and suggests set associativity as
// the fix for the inter-thread thrashing it observed; both are supported.
type cache struct {
	lineShift uint
	nsets     uint64
	ways      int

	// lines[set*ways .. set*ways+ways) holds the set in LRU order:
	// index 0 is most recently used, ways-1 is the eviction victim.
	lines []line

	// infinite-cache storage
	infinite  bool
	infStates map[uint64]lineState

	// gone records, per block ever resident, why it left. A block with
	// no entry has never been cached here: its next miss is compulsory.
	gone map[uint64]goneReason
}

func newCache(cfg Config) *cache {
	c := &cache{
		lineShift: cfg.lineShift(),
		gone:      make(map[uint64]goneReason),
	}
	if cfg.InfiniteCache {
		c.infinite = true
		c.infStates = make(map[uint64]lineState)
		return c
	}
	c.ways = cfg.Associativity
	if c.ways <= 0 {
		c.ways = 1
	}
	c.nsets = uint64(cfg.CacheSize / (cfg.LineSize * c.ways))
	c.lines = make([]line, int(c.nsets)*c.ways)
	return c
}

// block maps an address to its block (line tag) number.
func (c *cache) block(addr uint64) uint64 { return addr >> c.lineShift }

// set returns the slice of ways for the block's set, in LRU order.
func (c *cache) set(block uint64) []line {
	s := block % c.nsets
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// touch moves way i of the set to the MRU position. The fast cache's
// one-word lines share it.
func touch[L line | lineWord](set []L, i int) {
	if i == 0 {
		return
	}
	l := set[i]
	copy(set[1:i+1], set[0:i])
	set[0] = l
}

// lookup returns the state of the block (invalid if absent) and promotes
// it to MRU when present.
func (c *cache) lookup(block uint64) lineState {
	if c.infinite {
		return c.infStates[block]
	}
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			st := set[i].state
			touch(set, i)
			return st
		}
	}
	return invalid
}

// classifyMiss explains a miss on block by context ctx, using the ledger.
func (c *cache) classifyMiss(block uint64, ctx int32) MissKind {
	g, seen := c.gone[block]
	switch {
	case !seen:
		return Compulsory
	case g.invalidated:
		return InvalidationMiss
	case g.by == ctx:
		return ConflictIntra
	default:
		return ConflictInter
	}
}

// invalidator returns the processor that invalidated block, and true, when
// the block's last departure was an invalidation.
func (c *cache) invalidator(block uint64) (int32, bool) {
	g, seen := c.gone[block]
	if seen && g.invalidated {
		return g.by, true
	}
	return 0, false
}

// fill installs block with the given state on behalf of context ctx. An
// evicted victim's departure is attributed to ctx (the evicting context),
// so a re-reference by the victim's user classifies as an intra- or
// inter-thread conflict depending on who caused the eviction.
// It returns the victim block and whether the victim was dirty; victim is
// meaningful only when evicted is true.
func (c *cache) fill(block uint64, st lineState, ctx int32) (victim uint64, dirty, evicted bool) {
	if c.infinite {
		c.infStates[block] = st
		return 0, false, false
	}
	set := c.set(block)
	// Prefer an invalid way; otherwise evict the LRU way.
	way := -1
	for i := range set {
		if set[i].state == invalid {
			way = i
			break
		}
	}
	if way == -1 {
		way = len(set) - 1
		victim = set[way].tag
		dirty = set[way].state == modified
		evicted = true
		c.gone[victim] = goneReason{by: ctx}
	}
	set[way] = line{tag: block, state: st}
	touch(set, way)
	return victim, dirty, evicted
}

// setState changes the state of a resident block (upgrade or downgrade).
// It panics if the block is absent, which would indicate a protocol bug.
func (c *cache) setState(block uint64, st lineState) {
	if c.infinite {
		if c.infStates[block] == invalid {
			panic("sim: setState on non-resident block")
		}
		c.infStates[block] = st
		return
	}
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			set[i].state = st
			return
		}
	}
	panic("sim: setState on non-resident block")
}

// invalidate removes block if resident, recording the invalidating
// processor. It returns whether the block was resident and whether it was
// dirty.
func (c *cache) invalidate(block uint64, byProc int32) (present, dirty bool) {
	if c.infinite {
		st := c.infStates[block]
		if st == invalid {
			return false, false
		}
		delete(c.infStates, block)
		c.gone[block] = goneReason{invalidated: true, by: byProc}
		return true, st == modified
	}
	set := c.set(block)
	for i := range set {
		if set[i].state != invalid && set[i].tag == block {
			dirty = set[i].state == modified
			set[i].state = invalid
			c.gone[block] = goneReason{invalidated: true, by: byProc}
			return true, dirty
		}
	}
	return false, false
}

// residentBlocks returns every resident block and its state. Used by the
// protocol-invariant checker in tests.
func (c *cache) residentBlocks() map[uint64]lineState {
	out := make(map[uint64]lineState)
	if c.infinite {
		for b, s := range c.infStates {
			if s != invalid {
				out[b] = s
			}
		}
		return out
	}
	for i := range c.lines {
		if c.lines[i].state != invalid {
			out[c.lines[i].tag] = c.lines[i].state
		}
	}
	return out
}
