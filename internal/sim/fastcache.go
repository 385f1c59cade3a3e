package sim

// fastCache is the fast engine's data cache. It mirrors the reference
// cache's observable behaviour bit for bit (same LRU order, same eviction
// choice, same departure ledger) but is laid out for throughput:
//
//   - sets are indexed with a mask when the set count is a power of two —
//     always true for the paper's capacities — and direct-mapped caches,
//     the paper's configuration, take a single-way path, so the hit path
//     performs no division and no allocation;
//   - each line is one word, block<<2 | state (lineWord), half the size
//     of the reference cache's padded {tag, state} line;
//   - lines live in pages of pageSets sets, each allocated on the first
//     fill into it, so a run pays for the sets it touches rather than the
//     whole capacity. The paper's 8 MB stand-in for an infinite cache is
//     262,144 lines per processor, of which a run touches a few thousand.
type fastCache struct {
	lineShift uint
	nsets     uint64
	// setMask is nsets-1 when nsets is a power of two, else 0 (fall back
	// to modulo).
	setMask uint64
	ways    int
	// pages[i] holds sets [i*pageSets, (i+1)*pageSets) back to back, each
	// in LRU order like the reference cache; it is nil until the first
	// fill into one of them. The last page is short when nsets is not a
	// multiple of pageSets.
	pages [][]lineWord

	infinite  bool
	infStates map[uint64]lineState

	// gone records, per block ever resident, why it left; identical
	// semantics to the reference cache.
	gone map[uint64]goneReason
}

func (c *fastCache) init(cfg Config) {
	c.lineShift = cfg.lineShift()
	c.gone = make(map[uint64]goneReason)
	if cfg.InfiniteCache {
		c.infinite = true
		c.infStates = make(map[uint64]lineState)
		return
	}
	c.ways = cfg.Associativity
	if c.ways <= 0 {
		c.ways = 1
	}
	c.nsets = uint64(cfg.CacheSize / (cfg.LineSize * c.ways))
	if c.nsets&(c.nsets-1) == 0 {
		c.setMask = c.nsets - 1
	}
	c.pages = make([][]lineWord, (c.nsets+pageSets-1)/pageSets)
}

// lineWord is one fast-cache way in a single word: the block number above
// two lineState bits. The zero word is an invalid line, so a new page
// needs no initialization. Any block fits: trace.Pack caps addresses at
// 44 bits and a line holds at least one word, so a block has at most 41.
type lineWord uint64

//mtlint:hotpath
func packLine(block uint64, st lineState) lineWord { return lineWord(block<<2 | uint64(st)) }

//mtlint:hotpath
func (w lineWord) block() uint64 { return uint64(w >> 2) }

//mtlint:hotpath
func (w lineWord) state() lineState { return lineState(w & 3) }

// holds reports whether the line is valid and caches block.
//
//mtlint:hotpath
func (w lineWord) holds(block uint64) bool { return w>>2 == lineWord(block) && w&3 != 0 }

// pageShift sets the page size: 1024 sets, 8 KB of direct-mapped lines.
// The paper's 32 and 64 KB caches are one and two pages.
const (
	pageShift = 10
	pageSets  = 1 << pageShift
	pageMask  = pageSets - 1
)

// newPage allocates the page holding block's set and returns the set: the
// cold half of fill, run on the first fill into the page and kept out of
// the annotated hot path.
func (c *fastCache) newPage(block uint64) []lineWord {
	pi := c.setIndex(block) >> pageShift
	c.pages[pi] = make([]lineWord, min(c.nsets-pi*pageSets, pageSets)*uint64(c.ways))
	return c.set(block)
}

//mtlint:hotpath
func (c *fastCache) block(addr uint64) uint64 { return addr >> c.lineShift }

// setIndex maps a block to its set number.
//
//mtlint:hotpath
func (c *fastCache) setIndex(block uint64) uint64 {
	if c.setMask != 0 {
		return block & c.setMask
	}
	return block % c.nsets
}

// page returns the page holding set s, nil while unallocated, and the
// index of the set's first line in it. It and newPage hold the page
// layout.
//
//mtlint:hotpath
func (c *fastCache) page(s uint64) ([]lineWord, uint64) {
	return c.pages[s>>pageShift], (s & pageMask) * uint64(c.ways)
}

// set returns the ways of the block's set in LRU order, or nil while the
// set's page is unallocated.
//
//mtlint:hotpath
func (c *fastCache) set(block uint64) []lineWord {
	pg, i := c.page(c.setIndex(block))
	if pg == nil {
		return nil
	}
	return pg[i : i+uint64(c.ways)]
}

// slot returns a direct-mapped block's line, or nil while its page is
// unallocated.
//
//mtlint:hotpath
func (c *fastCache) slot(block uint64) *lineWord {
	if pg, i := c.page(c.setIndex(block)); i < uint64(len(pg)) {
		return &pg[i]
	}
	return nil
}

// lookup returns the state of the block (invalid if absent) and promotes
// it to MRU when present.
//
//mtlint:hotpath
func (c *fastCache) lookup(block uint64) lineState {
	if c.infinite {
		return c.infStates[block]
	}
	if c.ways == 1 {
		if l := c.slot(block); l != nil && l.holds(block) {
			return l.state()
		}
		return invalid
	}
	set := c.set(block)
	for i := range set {
		if set[i].holds(block) {
			st := set[i].state()
			touch(set, i)
			return st
		}
	}
	return invalid
}

// classifyMiss explains a miss on block by context ctx, using the ledger.
//
//mtlint:hotpath
func (c *fastCache) classifyMiss(block uint64, ctx int32) MissKind {
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
//
//mtlint:hotpath
func (c *fastCache) invalidator(block uint64) (int32, bool) {
	g, seen := c.gone[block]
	if seen && g.invalidated {
		return g.by, true
	}
	return 0, false
}

// fill installs block with the given state on behalf of context ctx,
// attributing any eviction to ctx exactly like the reference cache.
//
//mtlint:hotpath
func (c *fastCache) fill(block uint64, st lineState, ctx int32) (victim uint64, dirty, evicted bool) {
	if c.infinite {
		c.infStates[block] = st
		return 0, false, false
	}
	set := c.set(block)
	if set == nil {
		set = c.newPage(block)
	}
	if c.ways == 1 {
		l := &set[0]
		if l.state() != invalid {
			victim = l.block()
			dirty = l.state() == modified
			evicted = true
			c.gone[victim] = goneReason{by: ctx}
		}
		*l = packLine(block, st)
		return victim, dirty, evicted
	}
	way := -1
	for i := range set {
		if set[i].state() == invalid {
			way = i
			break
		}
	}
	if way == -1 {
		way = len(set) - 1
		victim = set[way].block()
		dirty = set[way].state() == modified
		evicted = true
		c.gone[victim] = goneReason{by: ctx}
	}
	set[way] = packLine(block, st)
	touch(set, way)
	return victim, dirty, evicted
}

// setState changes the state of a resident block (upgrade or downgrade).
//
//mtlint:hotpath
func (c *fastCache) setState(block uint64, st lineState) {
	if c.infinite {
		if c.infStates[block] == invalid {
			panic("sim: setState on non-resident block")
		}
		c.infStates[block] = st
		return
	}
	if c.ways == 1 {
		if l := c.slot(block); l != nil && l.holds(block) {
			*l = packLine(block, st)
			return
		}
		panic("sim: setState on non-resident block")
	}
	set := c.set(block)
	for i := range set {
		if set[i].holds(block) {
			set[i] = packLine(block, st)
			return
		}
	}
	panic("sim: setState on non-resident block")
}

// invalidate removes block if resident, recording the invalidating
// processor.
//
//mtlint:hotpath
func (c *fastCache) invalidate(block uint64, byProc int32) (present, dirty bool) {
	if c.infinite {
		st := c.infStates[block]
		if st == invalid {
			return false, false
		}
		delete(c.infStates, block)
		c.gone[block] = goneReason{invalidated: true, by: byProc}
		return true, st == modified
	}
	if c.ways == 1 {
		if l := c.slot(block); l != nil && l.holds(block) {
			dirty = l.state() == modified
			*l = packLine(block, invalid)
			c.gone[block] = goneReason{invalidated: true, by: byProc}
			return true, dirty
		}
		return false, false
	}
	set := c.set(block)
	for i := range set {
		if set[i].holds(block) {
			dirty = set[i].state() == modified
			set[i] = packLine(block, invalid)
			c.gone[block] = goneReason{invalidated: true, by: byProc}
			return true, dirty
		}
	}
	return false, false
}
