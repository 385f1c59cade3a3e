package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Online adaptive placement: an extension beyond the paper's dynamic
// COHERENCE-TRAFFIC algorithm, which only re-places threads *between*
// runs. Here the engine checkpoints per-thread-pair coherence statistics
// at a fixed detection interval, hands them to a pluggable OnlinePolicy,
// and applies the returned placement mid-run — migrated threads pay a
// modeled migration penalty (pipeline drain plus the working-set refill
// that emerges naturally as compulsory misses on the destination cache).
//
// With the interval disabled the online path is the exact static run:
// RunGuarded is RunOnlineGuarded with zero OnlineOptions, cycle for
// cycle, on both engines (asserted by the differential suite).

// OnlineOptions configure mid-run adaptive re-placement.
type OnlineOptions struct {
	// Interval is the detection interval in cycles: the engine stops at
	// every multiple, snapshots the per-thread-pair coherence stats and
	// asks Policy for a placement. 0 disables online mode entirely.
	Interval uint64
	// Penalty is the migration cost in cycles charged to every migrated
	// thread (pipeline drain + working-set refill allowance). The refill
	// itself is also modeled organically: a migrated thread's blocks are
	// compulsory misses on its new processor's cache.
	Penalty uint64
	// Policy decides the placement at each boundary. nil disables online
	// mode.
	Policy OnlinePolicy
}

// enabled reports whether the options actually turn online mode on.
func (o OnlineOptions) enabled() bool { return o.Interval > 0 && o.Policy != nil }

// OnlineEnv is the static context an OnlinePolicy decides in.
type OnlineEnv struct {
	// Procs is the processor count.
	Procs int
	// MemLatency is the machine's memory latency in cycles — the unit
	// cost a policy should charge per avoided coherence event.
	MemLatency uint64
	// Penalty is OnlineOptions.Penalty, so a policy can weigh predicted
	// savings against the migration bill it is about to run up.
	Penalty uint64
	// Lengths[t] is thread t's dynamic length in instructions.
	Lengths []uint64
}

// OnlinePolicy decides thread placement at detection boundaries.
// Implementations must be deterministic: the differential harness runs
// the same policy on both engines and requires identical decisions.
type OnlinePolicy interface {
	// Name identifies the policy in Result.Online and virtual algorithm
	// names.
	Name() string
	// Decide returns the desired thread→processor assignment, or nil to
	// keep the current placement. The engine migrates every thread whose
	// assignment differs and is migratable (not running, not done);
	// others retry at the next boundary.
	Decide(ck *OnlineCheckpoint, env OnlineEnv) []int
}

// OnlineCheckpoint is the statistics snapshot handed to a policy at one
// detection boundary. It is also the engine's mid-run checkpoint unit:
// EncodeOnlineCheckpoint/DecodeOnlineCheckpoint (dynamic.go) round-trip
// it byte-identically for resume.
type OnlineCheckpoint struct {
	// Epoch counts boundaries, starting at 1.
	Epoch int
	// Cycle is the boundary's simulated time.
	Cycle uint64
	// Assign[t] is thread t's current processor.
	Assign []int
	// Pair[a][b] is the cumulative thread-pair coherence traffic caused
	// by thread a at thread b's expense since cycle 0.
	Pair [][]uint64
	// EpochPair is Pair restricted to the last detection interval.
	EpochPair [][]uint64
}

// OnlineMove records one applied migration.
type OnlineMove struct {
	// Epoch and Cycle locate the decision boundary.
	Epoch int
	Cycle uint64
	// Thread moved from processor From to processor To.
	Thread int
	From   int
	To     int
}

// OnlineStats summarizes an online run; Result.Online carries it (nil
// for static runs, keeping static Result JSON byte-identical).
type OnlineStats struct {
	// Policy is the deciding policy's name.
	Policy string
	// Interval and Penalty echo the options.
	Interval uint64
	Penalty  uint64
	// Epochs counts detection boundaries processed.
	Epochs int
	// Migrations counts applied thread moves; PenaltyCycles is the total
	// migration cost charged.
	Migrations    int
	PenaltyCycles uint64
	// Moves lists every applied migration in decision order.
	Moves []OnlineMove
}

// blockOn keys the online attribution maps: a block as seen by one
// processor's cache.
type blockOn struct {
	block uint64
	proc  int32
}

// onlineState is the engines' shared online-mode bookkeeping. The cache
// stores only {tag, state} per line, so thread-level attribution of
// coherence events needs two side maps, both driven by the identical
// event sequence on both engines (hence deterministic and
// engine-identical):
//
//   - lastTouch[{block, proc}] is the thread that most recently accessed
//     the block on that processor — the presumed owner of the copy a
//     remote coherence action hits.
//   - invBy[{block, proc}] is the thread whose write invalidated that
//     processor's copy, consumed when a thread there re-misses on it
//     (mirroring cache.invalidator's processor-level ledger).
type onlineState struct {
	opts  OnlineOptions
	env   OnlineEnv
	next  uint64
	epoch int

	pair      [][]uint64 // cumulative thread-pair traffic
	epochPair [][]uint64 // current epoch's slice of pair
	lastTouch map[blockOn]int32
	invBy     map[blockOn]int32

	stats OnlineStats
}

func newOnlineState(opts OnlineOptions, tr *trace.Trace, cfg Config) *onlineState {
	n := tr.NumThreads()
	o := &onlineState{
		opts:      opts,
		next:      opts.Interval,
		pair:      make([][]uint64, n),
		epochPair: make([][]uint64, n),
		lastTouch: make(map[blockOn]int32),
		invBy:     make(map[blockOn]int32),
		stats: OnlineStats{
			Policy:   opts.Policy.Name(),
			Interval: opts.Interval,
			Penalty:  opts.Penalty,
		},
	}
	for i := range o.pair {
		o.pair[i] = make([]uint64, n)
		o.epochPair[i] = make([]uint64, n)
	}
	lengths := make([]uint64, n)
	for i := range lengths {
		lengths[i] = tr.Threads[i].Instructions()
	}
	o.env = OnlineEnv{
		Procs:      cfg.Processors,
		MemLatency: cfg.MemLatency,
		Penalty:    opts.Penalty,
		Lengths:    lengths,
	}
	return o
}

// touch records thread as the latest user of block on proc. Called at
// every shared-segment access (hits included): the thread that last
// touched a copy is the one a later remote coherence action victimizes.
func (o *onlineState) touch(block uint64, proc, thread int) {
	o.lastTouch[blockOn{block, int32(proc)}] = int32(thread)
}

// credit adds one unit of thread-pair traffic caused by thread from at
// thread to's expense. Unattributable victims (to < 0) are dropped — the
// count stays deterministic either way.
func (o *onlineState) credit(from, to int32) {
	if from < 0 || to < 0 || from == to {
		return
	}
	o.pair[from][to]++
	o.epochPair[from][to]++
}

// victimThread returns the last thread to use block on proc, or -1.
func (o *onlineState) victimThread(block uint64, proc int) int32 {
	if th, ok := o.lastTouch[blockOn{block, int32(proc)}]; ok {
		return th
	}
	return -1
}

// invalidated attributes thread actor invalidating proc q's copy of
// block, and remembers actor so q's eventual invalidation re-miss is
// credited too.
func (o *onlineState) invalidated(block uint64, actor int32, q int) {
	o.credit(actor, o.victimThread(block, q))
	o.invBy[blockOn{block, int32(q)}] = actor
}

// invalidationMiss attributes an invalidation miss by thread cur on proc
// back to the thread whose write caused it.
func (o *onlineState) invalidationMiss(block uint64, proc int, cur int32) {
	if by, ok := o.invBy[blockOn{block, int32(proc)}]; ok {
		o.credit(by, cur)
	}
}

// fetched attributes a non-invalidating remote service of block held on
// proc q (dirty-data fetch downgrade, write-update push) to thread actor.
func (o *onlineState) fetched(block uint64, actor int32, q int) {
	o.credit(actor, o.victimThread(block, q))
}

// copyMatrix deep-copies a square traffic matrix.
func copyMatrix(m [][]uint64) [][]uint64 {
	out := make([][]uint64, len(m))
	for i := range m {
		out[i] = append([]uint64(nil), m[i]...)
	}
	return out
}

// decide advances one epoch at boundary cycle b: snapshot the
// checkpoint, consult the policy and reset the epoch matrix. It returns
// the desired assignment, or nil to keep the current placement. assign
// is the caller-built current thread→processor map.
func (o *onlineState) decide(b uint64, assign []int) []int {
	o.epoch++
	o.stats.Epochs++
	ck := &OnlineCheckpoint{
		Epoch:     o.epoch,
		Cycle:     b,
		Assign:    append([]int(nil), assign...),
		Pair:      copyMatrix(o.pair),
		EpochPair: copyMatrix(o.epochPair),
	}
	want := o.opts.Policy.Decide(ck, o.env)
	for i := range o.epochPair {
		for j := range o.epochPair[i] {
			o.epochPair[i][j] = 0
		}
	}
	if len(want) != len(assign) {
		return nil
	}
	return want
}

// record books one applied migration.
func (o *onlineState) record(b uint64, thread, from, to int) {
	o.stats.Migrations++
	o.stats.PenaltyCycles += o.opts.Penalty
	o.stats.Moves = append(o.stats.Moves, OnlineMove{
		Epoch: o.epoch, Cycle: b, Thread: thread, From: from, To: to,
	})
}

// migratable reports whether a context's state allows a boundary move:
// running contexts have a live issue event in flight and done contexts
// have nowhere to go; both retry (or stay) at the next boundary. The
// boundary additionally refuses contexts with the moved flag set (see
// context.moved) so every migration is separated by real execution.
func migratable(st ctxState) bool { return st == ctxReady || st == ctxBlocked }

// onlineBoundary processes one detection boundary at cycle o.next on the
// reference engine: consult the policy, migrate what it asks, repair
// scheduler bookkeeping on every affected processor.
func (m *machine) onlineBoundary() {
	o := m.online
	b := o.next
	o.next += o.opts.Interval

	assign := make([]int, len(m.threadFinish))
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range m.procs {
		for _, c := range p.ctxs {
			assign[c.thread] = p.id
		}
	}
	want := o.decide(b, assign)
	if want == nil {
		return
	}

	// Snapshot which processors are idle-waiting (their one pending event
	// is a wake at p.wake >= b) before any context moves.
	type preState struct {
		idleWaiting bool
		wake        uint64
	}
	pre := make([]preState, len(m.procs))
	for i, p := range m.procs {
		pre[i] = preState{p.running < 0 && p.done < len(p.ctxs), p.wake}
	}

	affected := make([]bool, len(m.procs))
	for pid, p := range m.procs {
		kept := p.ctxs[:0]
		for _, c := range p.ctxs {
			q := want[c.thread]
			if q == pid || q < 0 || q >= len(m.procs) || !migratable(c.state) || c.moved {
				kept = append(kept, c)
				continue
			}
			// Migrate: the thread blocks until the boundary plus the
			// migration penalty; its working set refills on the new cache
			// as compulsory misses.
			if c.readyAt < b {
				c.readyAt = b
			}
			c.readyAt += o.opts.Penalty
			c.state = ctxBlocked
			c.moved = true
			m.procs[q].ctxs = append(m.procs[q].ctxs, c)
			affected[pid], affected[q] = true, true
			o.record(b, c.thread, pid, q)
			if m.probe != nil {
				m.probe.Migrate(b, c.thread, pid, q)
			}
		}
		p.ctxs = kept
	}

	for pid, p := range m.procs {
		if !affected[pid] {
			continue
		}
		for i, c := range p.ctxs {
			c.idx = int32(i)
		}
		if p.running >= 0 {
			// The running context's issue event stays valid; only its
			// index may have shifted.
			for i, c := range p.ctxs {
				if c.state == ctxRunning {
					p.running = i
					break
				}
			}
			p.rr = p.running
			continue
		}
		// Idle processor: its pending wake event (if any) is stale now
		// that its context set changed. Un-charge the idle span beyond the
		// boundary and reschedule from b; scheduleNext re-charges whatever
		// idle time is still real.
		if pre[pid].idleWaiting && pre[pid].wake > b {
			p.stats.Idle -= pre[pid].wake - b
		}
		p.rr = len(p.ctxs) - 1
		m.push(b, p)
	}
}

// onlineBoundary is the fast engine's line-for-line mirror of the
// reference boundary above (value-slab contexts instead of pointers).
func (m *fastMachine) onlineBoundary() {
	o := m.online
	b := o.next
	o.next += o.opts.Interval

	assign := make([]int, len(m.threadFinish))
	for i := range assign {
		assign[i] = -1
	}
	for i := range m.procs {
		p := &m.procs[i]
		for k := range p.ctxs {
			assign[p.ctxs[k].thread] = p.id
		}
	}
	want := o.decide(b, assign)
	if want == nil {
		return
	}

	type preState struct {
		idleWaiting bool
		wake        uint64
	}
	pre := make([]preState, len(m.procs))
	for i := range m.procs {
		p := &m.procs[i]
		pre[i] = preState{p.running < 0 && p.done < len(p.ctxs), p.wake}
	}

	affected := make([]bool, len(m.procs))
	for pid := range m.procs {
		p := &m.procs[pid]
		kept := p.ctxs[:0]
		for i := range p.ctxs {
			c := p.ctxs[i]
			q := want[c.thread]
			if q == pid || q < 0 || q >= len(m.procs) || !migratable(c.state) || c.moved {
				kept = append(kept, c)
				continue
			}
			if c.readyAt < b {
				c.readyAt = b
			}
			c.readyAt += o.opts.Penalty
			c.state = ctxBlocked
			c.moved = true
			m.procs[q].ctxs = append(m.procs[q].ctxs, c)
			affected[pid], affected[q] = true, true
			o.record(b, c.thread, pid, q)
			if m.probe != nil {
				m.probe.Migrate(b, c.thread, pid, q)
			}
		}
		p.ctxs = kept
	}

	for pid := range m.procs {
		if !affected[pid] {
			continue
		}
		p := &m.procs[pid]
		for i := range p.ctxs {
			p.ctxs[i].idx = int32(i)
		}
		if p.running >= 0 {
			for i := range p.ctxs {
				if p.ctxs[i].state == ctxRunning {
					p.running = i
					break
				}
			}
			p.rr = p.running
			continue
		}
		if pre[pid].idleWaiting && pre[pid].wake > b {
			p.stats.Idle -= pre[pid].wake - b
		}
		p.rr = len(p.ctxs) - 1
		m.push(b, p)
	}
}

// finish returns the run's OnlineStats for Result.Online.
func (o *onlineState) finish() *OnlineStats {
	s := o.stats
	return &s
}

// RunOnline simulates with online adaptive placement on the fast engine.
// pl is the seed placement the run starts from. Zero opts make it
// exactly Run.
func RunOnline(tr *trace.Trace, pl *placement.Placement, cfg Config, opts OnlineOptions) (*Result, error) {
	return RunOnlineGuarded(tr, pl, cfg, FastEngine, opts, nil, Guard{})
}

// RunOnlineObserved is RunOnline with an engine choice and a probe (see
// RunObserved); migrations reach the probe as Migrate events.
func RunOnlineObserved(tr *trace.Trace, pl *placement.Placement, cfg Config, eng Engine, opts OnlineOptions, probe obs.Probe) (*Result, error) {
	return RunOnlineGuarded(tr, pl, cfg, eng, opts, probe, Guard{})
}

// RunOnlineGuarded is the full entry point every static and online run
// goes through: engine choice, probe and watchdog. With opts disabled
// (zero Interval or nil Policy) the online machinery is not even
// constructed, so the run is cycle-exact against the static path.
func RunOnlineGuarded(tr *trace.Trace, pl *placement.Placement, cfg Config, eng Engine, opts OnlineOptions, probe obs.Probe, guard Guard) (*Result, error) {
	online := opts.enabled()
	if online && cfg.MaxContexts > 0 {
		return nil, fmt.Errorf("sim: online placement is incompatible with MaxContexts (loaded-context admission would race migrations)")
	}
	switch eng {
	case ReferenceEngine:
		m, err := newMachine(tr, pl, cfg)
		if err != nil {
			return nil, err
		}
		m.probe = probe
		m.guard = newGuardState(guard)
		if online {
			m.online = newOnlineState(opts, tr, m.cfg)
		}
		return m.run(tr, pl, 0)
	case FastEngine:
		m, err := newFastMachine(tr, pl, cfg)
		if err != nil {
			return nil, err
		}
		m.probe = probe
		m.guard = newGuardState(guard)
		if online {
			m.online = newOnlineState(opts, tr, m.cfg)
		}
		return m.run(tr, pl)
	default:
		return nil, fmt.Errorf("sim: unknown engine %d", eng)
	}
}
