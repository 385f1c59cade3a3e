package sim

import (
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/trace"
)

// The fast engine: a semantically identical port of the reference machine
// in engine.go, restructured for throughput.
//
//   - events live in a winner tree over processors, one packed
//     time<<procBits | proc key per leaf (eventtree.go), instead of a
//     container/heap of boxed (time, proc, seq) events;
//   - each processor's hardware contexts are a contiguous []context slab
//     instead of a []*context of separately allocated nodes;
//   - the cache indexes sets by mask, takes a single-way path when
//     direct-mapped, stores each line in one word and allocates its lines
//     in pages on first fill (fastcache.go);
//   - the directory stores entries in flat slabs with an arena-backed
//     sharer bitmap, and sharer sets are gathered into a scratch buffer
//     reused across transactions (fastdir.go).
//
// Every scheduling and accounting decision is kept line for line with the
// reference engine; the differential suite in internal/core asserts the
// two produce deeply equal Results over the whole application suite.

// fastProc is one simulated processor (fast engine).
type fastProc struct {
	id       int
	cache    fastCache
	ctxs     []context
	running  int
	rr       int
	done     int
	nextLoad int
	// wake is the pending wake time while idle-waiting (running == -1
	// with blocked contexts); online boundaries use it to un-charge idle
	// time when a migration re-activates the processor early.
	wake  uint64
	stats ProcStats
}

// fastMachine is the whole simulated system (fast engine).
type fastMachine struct {
	cfg          Config
	procs        []fastProc
	dir          *fastDirectory
	q            eventTree
	pair         [][]uint64
	threadFinish []uint64
	wr           *writeRunTracker
	channels     []uint64
	// maxTime is maxEventTime for this machine; late is the first time
	// past it the run produced (0 while none), which aborts the run.
	maxTime uint64
	late    uint64
	// scratch is the reusable sharer buffer for invalidation and update
	// fan-out; it grows to the maximum sharer count once and is then
	// reused for every transaction.
	scratch []int32
	// probe, when non-nil, receives observability events at the same
	// call sites as the reference engine. Probes never influence
	// simulation state.
	probe obs.Probe
	// guard, when non-nil, is the run's watchdog (step budget and
	// cancellation, see RunGuarded). Nil for unguarded runs.
	guard *guardState
	// online, when non-nil, is the mid-run adaptive-placement state (see
	// RunOnlineGuarded). Nil for static runs: the hot loop pays one nil
	// check and nothing else.
	online *onlineState
	// dynamic self-scheduling state (RunDynamic): threads waiting for a
	// processor to free a context. Last in the struct, so static runs see
	// the hot fields above at unchanged offsets.
	dynamic  bool
	dynQueue []context
}

func newFastMachine(tr *trace.Trace, pl *placement.Placement, cfg Config) (*fastMachine, error) {
	if err := checkRun(tr, pl, cfg); err != nil {
		return nil, err
	}
	return buildFastMachine(tr, pl.Clusters, cfg), nil
}

// buildFastMachine is buildMachine for the fast engine.
func buildFastMachine(tr *trace.Trace, clusters [][]int, cfg Config) *fastMachine {
	m := &fastMachine{
		cfg:          cfg,
		dir:          newFastDirectory(cfg.Processors),
		procs:        make([]fastProc, cfg.Processors),
		q:            newEventTree(cfg.Processors),
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
		p := &m.procs[pid]
		p.id = pid
		p.running = -1
		p.cache.init(cfg)
		p.ctxs = make([]context, len(cluster))
		for i, tid := range cluster {
			c := &p.ctxs[i]
			c.idx = int32(i)
			c.thread = tid
			c.cur = tr.Threads[tid].Cursor()
			switch {
			case cfg.MaxContexts > 0 && i >= cfg.MaxContexts:
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
	}
	return m
}

// admitNext loads the next waiting thread into the hardware context a
// completed thread freed.
//
//mtlint:hotpath
func (m *fastMachine) admitNext(p *fastProc) {
	for p.nextLoad < len(p.ctxs) {
		c := &p.ctxs[p.nextLoad]
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

func (m *fastMachine) run(tr *trace.Trace, pl *placement.Placement) (*Result, error) {
	if m.probe != nil {
		m.probe.RunBegin(obs.RunMeta{
			App: tr.App, Algorithm: pl.Algorithm, Engine: FastEngine.String(),
			Processors: len(m.procs), Threads: tr.NumThreads(),
		})
	}
	for i := range m.procs {
		p := &m.procs[i]
		if p.done < len(p.ctxs) {
			m.scheduleNext(p, 0)
		}
	}
	for {
		if m.late != 0 {
			return nil, timeOverflow(tr.App, pl.Algorithm, m.late, len(m.procs))
		}
		key, stale := m.q.min()
		if key == noEvent {
			break
		}
		t := m.q.time(key)
		if m.online != nil && t >= m.online.next {
			// A detection boundary falls before the next event: process it
			// without consuming the event.
			m.onlineBoundary()
			continue
		}
		m.q.pop(key, stale)
		if m.guard != nil && m.guard.tripped() {
			meta := obs.RunMeta{App: tr.App, Algorithm: pl.Algorithm, Engine: FastEngine.String()}
			return nil, m.guard.budgetError(meta, t, m.q.len())
		}
		if stale {
			continue
		}
		p := &m.procs[m.q.proc(key)]
		if m.probe != nil {
			m.probe.QueueDepth(t, m.q.len())
		}
		if p.running < 0 {
			m.scheduleNext(p, t)
			continue
		}
		m.access(p, &p.ctxs[p.running], t)
	}

	res := &Result{
		App:          tr.App,
		Algorithm:    pl.Algorithm,
		Config:       m.cfg,
		Procs:        make([]ProcStats, len(m.procs)),
		PairTraffic:  m.pair,
		ThreadFinish: m.threadFinish,
	}
	for i := range m.procs {
		p := &m.procs[i]
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
//
//mtlint:hotpath
func (m *fastMachine) push(t uint64, p *fastProc) {
	m.checkTime(t)
	m.q.push(t, p.id)
}

// checkTime records t as the run's first out-of-range time when it is
// past maxTime; the event loop then aborts the run.
//
//mtlint:hotpath
func (m *fastMachine) checkTime(t uint64) {
	if t > m.maxTime && m.late == 0 {
		m.late = t
	}
}

// scheduleNext picks the next ready context round-robin and schedules its
// issue; with no ready context the processor idles until the earliest
// blocked completion.
//
//mtlint:hotpath
func (m *fastMachine) scheduleNext(p *fastProc, t uint64) {
	n := len(p.ctxs)
	chosen := -1
	for i := 1; i <= n; i++ {
		q := p.rr + i
		if q >= n {
			q -= n
		}
		c := &p.ctxs[q]
		if c.state == ctxReady || (c.state == ctxBlocked && c.readyAt <= t) {
			chosen = q
			break
		}
	}
	if chosen >= 0 {
		p.rr = chosen
		p.running = chosen
		c := &p.ctxs[chosen]
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
	for i := range p.ctxs {
		c := &p.ctxs[i]
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
//
//mtlint:hotpath
func (m *fastMachine) access(p *fastProc, c *context, t uint64) {
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
		ei := m.dir.entry(block)
		if m.cfg.Protocol == Update {
			m.updateOthers(p, ei, block, t)
			m.completeHit(p, c, t)
			return
		}
		m.scratch = m.dir.appendOthers(ei, p.id, m.scratch[:0])
		if len(m.scratch) == 0 {
			// Silent upgrade: sole sharer takes ownership without a
			// network transaction.
			p.cache.setState(block, modified)
			m.dir.setOwner(ei, int32(p.id))
			m.completeHit(p, c, t)
			return
		}
		// Upgrade with remote sharers: a network transaction (stall +
		// switch) but not a miss.
		p.stats.Upgrades++
		m.invalidateOthers(p, ei, block, t)
		m.dir.setOwner(ei, int32(p.id))
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

	ei := m.dir.entry(block)
	if e.Kind == trace.Read {
		if own := m.dir.owner(ei); own >= 0 && int(own) != p.id {
			// Fetch dirty data from the owner; owner downgrades M->S.
			owner := &m.procs[own]
			owner.cache.setState(block, shared)
			owner.stats.Writebacks++
			m.pair[p.id][owner.id]++
			if m.online != nil {
				m.online.fetched(block, int32(c.thread), owner.id)
			}
			if m.probe != nil {
				m.probe.PairTraffic(t, p.id, owner.id)
			}
			m.dir.setOwner(ei, -1)
		}
		m.dir.add(ei, p.id)
		m.fill(p, c, block, shared)
	} else if m.cfg.Protocol == Update {
		// Write miss under write-update: fetch the line, keep remote
		// copies valid and push them the new value.
		m.updateOthers(p, ei, block, t)
		m.dir.add(ei, p.id)
		m.fill(p, c, block, shared)
	} else {
		if own := m.dir.owner(ei); own >= 0 && int(own) != p.id {
			owner := &m.procs[own]
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
			m.dir.remove(ei, owner.id)
			m.dir.setOwner(ei, -1)
		}
		m.invalidateOthers(p, ei, block, t)
		m.dir.add(ei, p.id)
		m.dir.setOwner(ei, int32(p.id))
		m.fill(p, c, block, modified)
	}
	m.completeTransaction(p, c, t)
}

// invalidateOthers invalidates every remote sharer of the entry and
// updates the directory so p is the only sharer. The sharer set is
// gathered into the machine's scratch buffer first (same ascending order
// as the reference directory's callback iteration).
//
//mtlint:hotpath
func (m *fastMachine) invalidateOthers(p *fastProc, ei int32, block uint64, t uint64) {
	m.scratch = m.dir.appendOthers(ei, p.id, m.scratch[:0])
	for _, q := range m.scratch {
		victim := &m.procs[q]
		if present, _ := victim.cache.invalidate(block, int32(p.id)); present {
			victim.stats.InvalidationsReceived++
			p.stats.InvalidationsSent++
			m.pair[p.id][q]++
			if m.online != nil {
				m.online.invalidated(block, int32(p.ctxs[p.running].thread), int(q))
			}
			if m.probe != nil {
				m.probe.Invalidation(t, p.id, int(q))
				m.probe.PairTraffic(t, p.id, int(q))
			}
		}
	}
	m.dir.clearSharers(ei)
	m.dir.add(ei, p.id)
}

// updateOthers pushes a written value to every remote sharer of the entry
// (write-update protocol).
//
//mtlint:hotpath
func (m *fastMachine) updateOthers(p *fastProc, ei int32, block uint64, t uint64) {
	m.scratch = m.dir.appendOthers(ei, p.id, m.scratch[:0])
	for _, q := range m.scratch {
		m.acquireChannel(t)
		m.procs[q].stats.UpdatesReceived++
		p.stats.UpdatesSent++
		m.pair[p.id][q]++
		if m.online != nil {
			m.online.fetched(block, int32(p.ctxs[p.running].thread), int(q))
		}
		if m.probe != nil {
			m.probe.Update(t, p.id, int(q))
			m.probe.PairTraffic(t, p.id, int(q))
		}
	}
}

// fill installs the block in p's cache and handles victim write-back and
// directory maintenance.
//
//mtlint:hotpath
func (m *fastMachine) fill(p *fastProc, c *context, block uint64, st lineState) {
	victim, dirty, evicted := p.cache.fill(block, st, c.idx)
	if !evicted {
		return
	}
	if vei := m.dir.peek(victim); vei >= 0 {
		m.dir.remove(vei, p.id)
		if int(m.dir.owner(vei)) == p.id {
			m.dir.setOwner(vei, -1)
		}
	}
	if dirty {
		p.stats.Writebacks++
	}
}

// completeHit charges the hit and advances the context in place.
//
//mtlint:hotpath
func (m *fastMachine) completeHit(p *fastProc, c *context, t uint64) {
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
//
//mtlint:hotpath
func (m *fastMachine) acquireChannel(t uint64) uint64 {
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
// transaction, exactly like the reference engine.
//
//mtlint:hotpath
func (m *fastMachine) completeTransaction(p *fastProc, c *context, t uint64) {
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
