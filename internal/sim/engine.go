package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/trace"
)

// ctxState is a hardware context's scheduling state.
type ctxState uint8

const (
	ctxReady ctxState = iota
	ctxRunning
	ctxBlocked
	ctxDone
	// ctxUnloaded: the thread waits for a hardware context to free up
	// (only with Config.MaxContexts set).
	ctxUnloaded
)

// context is one hardware context, statically loaded with one thread.
//
// A memory reference that misses is completed *at issue time*: the cache
// fill and all coherence actions happen immediately, the memory latency is
// charged by blocking the context, and on resume the context proceeds to
// its next reference. (Re-issuing the access after the latency would
// livelock when two processors ping-pong writes to one block.)
type context struct {
	idx     int32 // index within the processor
	thread  int   // global thread ID
	cur     *trace.Cursor
	pending trace.Event
	state   ctxState
	readyAt uint64 // completion time while blocked
	// moved marks a context migrated by online placement that has not
	// executed since; it may not migrate again until it runs, so an
	// adversarial policy cannot defer a thread forever by re-migrating it
	// at every boundary (each migration is separated by real execution,
	// and a finite trace then bounds total migrations).
	moved bool
}

// proc is one simulated processor.
type proc struct {
	id       int
	cache    *cache
	ctxs     []*context
	running  int // context index, or -1 while idle/finished
	rr       int // round-robin pointer (last scheduled context)
	seq      uint64
	done     int
	nextLoad int // next unloaded context to admit when one frees
	// wake is the pending wake time while idle-waiting (running == -1
	// with blocked contexts); online boundaries use it to un-charge idle
	// time when a migration re-activates the processor early.
	wake  uint64
	stats ProcStats
}

// event is a scheduled processor action: issue the running context's
// pending reference, or wake from idle.
type event struct {
	time uint64
	proc int
	seq  uint64
}

// eventHeap is the reference engine's container/heap-backed event queue.
// Every Push boxes the event into an interface{} (one heap allocation per
// scheduled action), and an event superseded by a later push for its
// processor stays queued until it surfaces, where its stale seq marks it
// to be skipped. The fast engine replaces it with the winner tree of
// packed (time, proc) keys in eventtree.go.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].proc < h[j].proc
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// machine is the whole simulated system (reference engine). The fast
// engine in fast.go mirrors this structure with flattened storage; any
// semantic change here must be ported there (the differential suite fails
// loudly if the two drift).
type machine struct {
	cfg          Config
	procs        []*proc
	dir          *directory
	h            eventHeap
	pair         [][]uint64
	threadFinish []uint64
	wr           *writeRunTracker
	// channels holds each interconnect channel's next free time when
	// contention is modeled (Config.NetworkChannels > 0).
	channels []uint64
	// maxTime is maxEventTime for this machine; late is the first time
	// past it the run produced (0 while none), which aborts the run.
	maxTime uint64
	late    uint64
	// dynamic self-scheduling state (RunDynamic): threads waiting for a
	// processor to free a context.
	dynamic  bool
	dynQueue []context
	// probe, when non-nil, receives observability events. Probes never
	// influence simulation state: probe-on and probe-off runs produce
	// deeply equal Results (asserted by the differential suite).
	probe obs.Probe
	// guard, when non-nil, is the run's watchdog (step budget and
	// cancellation, see RunGuarded). Nil for unguarded runs.
	guard *guardState
	// online, when non-nil, is the mid-run adaptive-placement state (see
	// RunOnlineGuarded). Nil for static runs: the hot loop pays one nil
	// check and nothing else.
	online *onlineState
}

// Engine selects one of the two simulation engine implementations. Both
// produce bit-identical Results for any (trace, placement, config); the
// differential suite in internal/core asserts this across the whole
// application suite.
type Engine int

const (
	// FastEngine is the default optimized engine: a winner tree of packed
	// (time, proc) event keys (no interface boxing, no sequence numbers),
	// contexts stored in a contiguous slab, mask-indexed allocation-free
	// cache lookups over one-word lines, and an arena-backed directory
	// with reusable sharer scratch buffers.
	FastEngine Engine = iota
	// ReferenceEngine is the original straightforward implementation,
	// kept only as the oracle for differential testing and for
	// RunChecked's protocol-invariant verification. No production path
	// outside this package may select it (TestReferenceEngineIsTestOnly).
	ReferenceEngine
)

// String names the engine.
func (e Engine) String() string {
	if e == ReferenceEngine {
		return "reference"
	}
	return "fast"
}

// Run simulates trace tr on the machine described by cfg under the given
// placement. It is deterministic and returns per-processor statistics, the
// execution time (max finish over processors), and the pairwise coherence
// traffic matrix. It uses the fast engine.
func Run(tr *trace.Trace, pl *placement.Placement, cfg Config) (*Result, error) {
	return RunObserved(tr, pl, cfg, FastEngine, nil)
}

// RunObserved is Run with an explicit engine choice and an observability
// probe attached: the engine reports thread scheduling, cache hits and
// misses, coherence messages, context switches and event-queue depth to
// the probe as they happen. The two engines are bit-for-bit
// interchangeable; ReferenceEngine exists as the slower oracle the
// differential tests compare FastEngine against. A nil probe is the
// plain hot path (no per-event cost beyond one nil check per emission
// site); any probe leaves the Result bit-identical to the unobserved run.
func RunObserved(tr *trace.Trace, pl *placement.Placement, cfg Config, eng Engine, probe obs.Probe) (*Result, error) {
	return RunGuarded(tr, pl, cfg, eng, probe, Guard{})
}

// RunChecked is Run with the global coherence-protocol invariants verified
// every checkEvery events (and once at the end). It is slower and intended
// for tests; the invariant checker lives on the reference engine.
func RunChecked(tr *trace.Trace, pl *placement.Placement, cfg Config, checkEvery int) (*Result, error) {
	m, err := newMachine(tr, pl, cfg)
	if err != nil {
		return nil, err
	}
	return m.run(tr, pl, checkEvery)
}

func newMachine(tr *trace.Trace, pl *placement.Placement, cfg Config) (*machine, error) {
	if err := checkRun(tr, pl, cfg); err != nil {
		return nil, err
	}
	return buildMachine(tr, pl.Clusters, cfg), nil
}

// checkRun validates a static run's configuration and placement (both
// engines).
func checkRun(tr *trace.Trace, pl *placement.Placement, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(tr.NumThreads(), cfg.Processors); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// buildMachine loads each processor's cluster of threads into its
// hardware contexts; the caller has validated cfg and the clusters.
func buildMachine(tr *trace.Trace, clusters [][]int, cfg Config) *machine {
	m := &machine{
		cfg:          cfg,
		dir:          newDirectory(cfg.Processors),
		pair:         make([][]uint64, cfg.Processors),
		threadFinish: make([]uint64, tr.NumThreads()),
		maxTime:      maxEventTime(cfg.Processors),
	}
	for i := range m.pair {
		m.pair[i] = make([]uint64, cfg.Processors)
	}
	if cfg.TrackWriteRuns {
		m.wr = newWriteRunTracker()
	}
	if cfg.NetworkChannels > 0 {
		m.channels = make([]uint64, cfg.NetworkChannels)
		if m.cfg.NetworkOccupancy == 0 {
			m.cfg.NetworkOccupancy = DefaultNetworkOccupancy
		}
	}
	for pid, cluster := range clusters {
		p := &proc{id: pid, cache: newCache(cfg), running: -1}
		for i, tid := range cluster {
			c := &context{idx: int32(i), thread: tid, cur: tr.Threads[tid].Cursor()}
			switch {
			case cfg.MaxContexts > 0 && i >= cfg.MaxContexts:
				// No free hardware context yet; the thread waits.
				c.state = ctxUnloaded
			default:
				if e, ok := c.cur.Next(); ok {
					c.pending = e
					c.state = ctxReady
				} else {
					c.state = ctxDone
					p.done++
				}
			}
			p.ctxs = append(p.ctxs, c)
		}
		p.nextLoad = len(p.ctxs)
		if cfg.MaxContexts > 0 && cfg.MaxContexts < len(p.ctxs) {
			p.nextLoad = cfg.MaxContexts
			// An initially loaded thread may be empty (its context is done
			// from cycle zero); each such context is a free slot a waiting
			// thread must be admitted into, or it would never run.
			for free := p.done; free > 0; free-- {
				m.admitNext(p)
			}
		}
		p.rr = len(p.ctxs) - 1
		m.procs = append(m.procs, p)
	}
	return m
}

// admitNext loads the next waiting thread into the hardware context a
// completed thread freed.
func (m *machine) admitNext(p *proc) {
	for p.nextLoad < len(p.ctxs) {
		c := p.ctxs[p.nextLoad]
		p.nextLoad++
		if c.state != ctxUnloaded {
			continue
		}
		if e, ok := c.cur.Next(); ok {
			c.pending = e
			c.state = ctxReady
			return
		}
		c.state = ctxDone
		p.done++
	}
}

func (m *machine) run(tr *trace.Trace, pl *placement.Placement, checkEvery int) (*Result, error) {
	heap.Init(&m.h)
	if m.probe != nil {
		m.probe.RunBegin(obs.RunMeta{
			App: tr.App, Algorithm: pl.Algorithm, Engine: ReferenceEngine.String(),
			Processors: len(m.procs), Threads: tr.NumThreads(),
		})
	}
	for _, p := range m.procs {
		if p.done < len(p.ctxs) {
			m.scheduleNext(p, 0)
		}
	}
	steps := 0
	for {
		if m.late != 0 {
			return nil, timeOverflow(tr.App, pl.Algorithm, m.late, len(m.procs))
		}
		if m.h.Len() == 0 {
			break
		}
		if m.online != nil && m.h[0].time >= m.online.next {
			// A detection boundary falls before the next event: process it
			// without consuming the event.
			m.onlineBoundary()
			continue
		}
		ev := heap.Pop(&m.h).(event)
		if m.guard != nil && m.guard.tripped() {
			meta := obs.RunMeta{App: tr.App, Algorithm: pl.Algorithm, Engine: ReferenceEngine.String()}
			return nil, m.guard.budgetError(meta, ev.time, m.h.Len())
		}
		p := m.procs[ev.proc]
		if ev.seq != p.seq {
			continue
		}
		if m.probe != nil {
			m.probe.QueueDepth(ev.time, m.h.Len())
		}
		if p.running < 0 {
			m.scheduleNext(p, ev.time)
			continue
		}
		m.access(p, p.ctxs[p.running], ev.time)
		steps++
		if checkEvery > 0 && steps%checkEvery == 0 {
			if err := m.checkInvariants(); err != nil {
				return nil, fmt.Errorf("sim: protocol invariant violated at step %d: %w", steps, err)
			}
		}
	}
	if checkEvery > 0 {
		if err := m.checkInvariants(); err != nil {
			return nil, fmt.Errorf("sim: protocol invariant violated at end: %w", err)
		}
	}

	res := &Result{
		App:          tr.App,
		Algorithm:    pl.Algorithm,
		Config:       m.cfg,
		Procs:        make([]ProcStats, len(m.procs)),
		PairTraffic:  m.pair,
		ThreadFinish: m.threadFinish,
	}
	for i, p := range m.procs {
		res.Procs[i] = p.stats
		if p.stats.Finish > res.ExecTime {
			res.ExecTime = p.stats.Finish
		}
	}
	if m.wr != nil {
		res.WriteRuns = m.wr.stats()
	}
	if m.online != nil {
		res.Online = m.online.finish()
	}
	if m.probe != nil {
		m.probe.RunEnd(res.ExecTime)
	}
	return res, nil
}

// push schedules the processor's next action.
func (m *machine) push(t uint64, p *proc) {
	m.checkTime(t)
	p.seq++
	heap.Push(&m.h, event{time: t, proc: p.id, seq: p.seq})
}

// checkTime records t as the run's first out-of-range time when it is
// past maxTime; the event loop then aborts the run.
func (m *machine) checkTime(t uint64) {
	if t > m.maxTime && m.late == 0 {
		m.late = t
	}
}

// scheduleNext picks the next ready context round-robin and schedules its
// issue; with no ready context the processor idles until the earliest
// blocked completion.
func (m *machine) scheduleNext(p *proc, t uint64) {
	n := len(p.ctxs)
	chosen := -1
	for i := 1; i <= n; i++ {
		q := (p.rr + i) % n
		c := p.ctxs[q]
		if c.state == ctxReady || (c.state == ctxBlocked && c.readyAt <= t) {
			chosen = q
			break
		}
	}
	if chosen >= 0 {
		p.rr = chosen
		p.running = chosen
		c := p.ctxs[chosen]
		c.state = ctxRunning
		c.moved = false
		if m.probe != nil {
			m.probe.ThreadRun(t, p.id, c.thread)
		}
		gap := uint64(c.pending.Gap)
		p.stats.Busy += gap
		m.push(t+gap, p)
		return
	}

	p.running = -1
	var wake uint64
	found := false
	for _, c := range p.ctxs {
		if c.state == ctxBlocked && (!found || c.readyAt < wake) {
			wake = c.readyAt
			found = true
		}
	}
	if !found {
		return // all contexts done; finish time already recorded
	}
	if wake > t {
		p.stats.Idle += wake - t
	} else {
		wake = t
	}
	p.wake = wake
	m.push(wake, p)
}

// access issues context c's pending reference at time t, drives the cache
// and coherence protocol, and schedules the processor's next action.
func (m *machine) access(p *proc, c *context, t uint64) {
	e := c.pending
	p.stats.Refs++
	if trace.IsShared(e.Addr) {
		p.stats.SharedRefs++
	}
	block := p.cache.block(e.Addr)
	if m.wr != nil && e.Kind == trace.Write && trace.IsShared(e.Addr) {
		m.wr.observe(block, int32(c.thread))
	}
	if m.online != nil && trace.IsShared(e.Addr) {
		m.online.touch(block, p.id, c.thread)
	}
	st := p.cache.lookup(block)

	switch {
	case e.Kind == trace.Read && st != invalid:
		m.completeHit(p, c, t)
		return

	case e.Kind == trace.Write && st == modified:
		m.completeHit(p, c, t)
		return

	case e.Kind == trace.Write && st == shared:
		en := m.dir.entry(block)
		if m.cfg.Protocol == Update {
			// Write-update: propagate the value to remote copies from
			// the write buffer; the writer does not stall and every
			// copy stays valid.
			m.updateOthers(p, en, block, t)
			m.completeHit(p, c, t)
			return
		}
		remote := false
		en.others(p.id, func(int) { remote = true })
		if !remote {
			// Silent upgrade: sole sharer takes ownership without a
			// network transaction.
			p.cache.setState(block, modified)
			en.owner = int32(p.id)
			m.completeHit(p, c, t)
			return
		}
		// Upgrade with remote sharers: a network transaction (stall +
		// switch) but not a miss.
		p.stats.Upgrades++
		m.invalidateOthers(p, en, block, t)
		en.owner = int32(p.id)
		p.cache.setState(block, modified)
		m.completeTransaction(p, c, t)
		return
	}

	// Miss.
	kind := p.cache.classifyMiss(block, c.idx)
	p.stats.Misses[kind]++
	if m.probe != nil {
		m.probe.CacheMiss(t, p.id, c.thread, obs.MissClass(kind))
	}
	if kind == InvalidationMiss {
		if m.online != nil {
			m.online.invalidationMiss(block, p.id, int32(c.thread))
		}
		if by, ok := p.cache.invalidator(block); ok {
			m.pair[by][p.id]++
			if m.probe != nil {
				m.probe.PairTraffic(t, int(by), p.id)
			}
		}
	}

	en := m.dir.entry(block)
	if e.Kind == trace.Read {
		if en.owner >= 0 && int(en.owner) != p.id {
			// Fetch dirty data from the owner; owner downgrades M->S.
			owner := m.procs[en.owner]
			owner.cache.setState(block, shared)
			owner.stats.Writebacks++
			m.pair[p.id][owner.id]++
			if m.online != nil {
				m.online.fetched(block, int32(c.thread), owner.id)
			}
			if m.probe != nil {
				m.probe.PairTraffic(t, p.id, owner.id)
			}
			en.owner = -1
		}
		en.add(p.id)
		m.fill(p, c, block, shared)
	} else if m.cfg.Protocol == Update {
		// Write miss under write-update: fetch the line, keep remote
		// copies valid and push them the new value.
		m.updateOthers(p, en, block, t)
		en.add(p.id)
		m.fill(p, c, block, shared)
	} else {
		if en.owner >= 0 && int(en.owner) != p.id {
			owner := m.procs[en.owner]
			if present, _ := owner.cache.invalidate(block, int32(p.id)); present {
				owner.stats.Writebacks++
				owner.stats.InvalidationsReceived++
				p.stats.InvalidationsSent++
				m.pair[p.id][owner.id]++
				if m.online != nil {
					m.online.invalidated(block, int32(c.thread), owner.id)
				}
				if m.probe != nil {
					m.probe.Invalidation(t, p.id, owner.id)
					m.probe.PairTraffic(t, p.id, owner.id)
				}
			}
			en.remove(owner.id)
			en.owner = -1
		}
		m.invalidateOthers(p, en, block, t)
		en.add(p.id)
		en.owner = int32(p.id)
		m.fill(p, c, block, modified)
	}
	m.completeTransaction(p, c, t)
}

// invalidateOthers invalidates every remote sharer of block and updates
// the directory so p is the only sharer.
func (m *machine) invalidateOthers(p *proc, en *dirEntry, block uint64, t uint64) {
	en.others(p.id, func(q int) {
		victim := m.procs[q]
		if present, _ := victim.cache.invalidate(block, int32(p.id)); present {
			victim.stats.InvalidationsReceived++
			p.stats.InvalidationsSent++
			m.pair[p.id][q]++
			if m.online != nil {
				m.online.invalidated(block, int32(p.ctxs[p.running].thread), q)
			}
			if m.probe != nil {
				m.probe.Invalidation(t, p.id, q)
				m.probe.PairTraffic(t, p.id, q)
			}
		}
	})
	en.clearSharers()
	en.add(p.id)
}

// updateOthers pushes a written value to every remote sharer of the entry
// (write-update protocol). The messages occupy interconnect channels but
// do not stall the writer.
func (m *machine) updateOthers(p *proc, en *dirEntry, block uint64, t uint64) {
	en.others(p.id, func(q int) {
		m.acquireChannel(t)
		m.procs[q].stats.UpdatesReceived++
		p.stats.UpdatesSent++
		m.pair[p.id][q]++
		if m.online != nil {
			m.online.fetched(block, int32(p.ctxs[p.running].thread), q)
		}
		if m.probe != nil {
			m.probe.Update(t, p.id, q)
			m.probe.PairTraffic(t, p.id, q)
		}
	})
}

// fill installs the block in p's cache and handles victim write-back and
// directory maintenance.
func (m *machine) fill(p *proc, c *context, block uint64, st lineState) {
	victim, dirty, evicted := p.cache.fill(block, st, c.idx)
	if !evicted {
		return
	}
	if ven := m.dir.peek(victim); ven != nil {
		ven.remove(p.id)
		if int(ven.owner) == p.id {
			ven.owner = -1
		}
	}
	if dirty {
		p.stats.Writebacks++
	}
}

// completeHit charges the hit and advances the context in place.
func (m *machine) completeHit(p *proc, c *context, t uint64) {
	p.stats.Hits++
	if m.probe != nil {
		m.probe.CacheHit(t, p.id, c.thread)
	}
	p.stats.Busy += m.cfg.HitCycles
	done := t + m.cfg.HitCycles
	if next, ok := c.cur.Next(); ok {
		c.pending = next
		gap := uint64(next.Gap)
		p.stats.Busy += gap
		m.push(done+gap, p)
		return
	}
	// Thread complete.
	m.checkTime(done)
	c.state = ctxDone
	p.done++
	m.threadFinish[c.thread] = done
	if done > p.stats.Finish {
		p.stats.Finish = done
	}
	if m.probe != nil {
		m.probe.ThreadFinish(done, p.id, c.thread)
	}
	if m.dynamic {
		m.pullDynamic(p)
	}
	m.admitNext(p)
	if p.done == len(p.ctxs) {
		p.running = -1
		return
	}
	// Switch to another context (pipeline drain applies).
	p.stats.Switch += m.cfg.SwitchCycles
	if m.probe != nil {
		m.probe.ContextSwitch(done, p.id)
	}
	m.scheduleNext(p, done+m.cfg.SwitchCycles)
}

// acquireChannel reserves an interconnect channel at time t and returns
// the queueing delay (zero without a contention model).
func (m *machine) acquireChannel(t uint64) uint64 {
	if len(m.channels) == 0 {
		return 0
	}
	best := 0
	for i := 1; i < len(m.channels); i++ {
		if m.channels[i] < m.channels[best] {
			best = i
		}
	}
	start := t
	if m.channels[best] > start {
		start = m.channels[best]
	}
	m.channels[best] = start + m.cfg.NetworkOccupancy
	return start - t
}

// completeTransaction finishes a reference that required a network
// transaction: the issuing instruction is charged, the context blocks for
// the memory latency (plus any channel queueing) and advances to its next
// reference, and the processor switches to another ready context.
func (m *machine) completeTransaction(p *proc, c *context, t uint64) {
	p.stats.Busy++ // the issuing instruction occupies the pipeline
	wait := m.acquireChannel(t)
	p.stats.NetworkWait += wait
	done := t + wait + m.cfg.MemLatency
	m.checkTime(done)
	if m.probe != nil {
		m.probe.ThreadPause(t, p.id, c.thread, done)
	}
	if next, ok := c.cur.Next(); ok {
		c.pending = next
		c.state = ctxBlocked
		c.readyAt = done
	} else {
		// The thread's final reference completes when memory responds.
		c.state = ctxDone
		p.done++
		m.threadFinish[c.thread] = done
		if done > p.stats.Finish {
			p.stats.Finish = done
		}
		if m.probe != nil {
			m.probe.ThreadFinish(done, p.id, c.thread)
		}
		if m.dynamic {
			m.pullDynamic(p)
		}
		m.admitNext(p)
	}
	p.stats.Switch += m.cfg.SwitchCycles
	if m.probe != nil {
		m.probe.ContextSwitch(t, p.id)
	}
	m.scheduleNext(p, t+m.cfg.SwitchCycles)
}

// checkInvariants verifies global protocol consistency: at most one
// Modified copy of any block, no Shared copies alongside a Modified one,
// and directory state matching cache contents. Tests call this through an
// exported hook.
func (m *machine) checkInvariants() error {
	type holder struct {
		proc int
		st   lineState
	}
	blocks := make(map[uint64][]holder)
	for _, p := range m.procs {
		for b, st := range p.cache.residentBlocks() {
			blocks[b] = append(blocks[b], holder{p.id, st})
		}
	}
	for b, hs := range blocks {
		mods := 0
		for _, h := range hs {
			if h.st == modified {
				mods++
			}
		}
		if mods > 1 {
			return fmt.Errorf("block %#x modified in %d caches", b, mods)
		}
		if mods == 1 && len(hs) > 1 {
			return fmt.Errorf("block %#x modified alongside %d other copies", b, len(hs)-1)
		}
		en := m.dir.peek(b)
		if en == nil {
			return fmt.Errorf("block %#x cached but unknown to directory", b)
		}
		for _, h := range hs {
			if !en.has(h.proc) {
				return fmt.Errorf("block %#x in cache %d but not in directory sharers", b, h.proc)
			}
			if h.st == modified && int(en.owner) != h.proc {
				return fmt.Errorf("block %#x modified in %d but directory owner is %d", b, h.proc, en.owner)
			}
		}
	}
	// The directory must not list phantom sharers.
	for b, en := range m.dir.entries {
		if got, want := en.count(), len(blocks[b]); got != want {
			return fmt.Errorf("block %#x: directory lists %d sharers, caches hold %d", b, got, want)
		}
	}
	return nil
}
