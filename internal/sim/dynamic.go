package sim

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Dynamic scheduling: an extension beyond the paper's static placements.
// The paper's RANDOM baseline is "what a low-overhead runtime scheduler
// would adopt, given no a priori application knowledge" — but a real
// runtime scheduler is *online*: it hands the next waiting thread to
// whichever processor frees a context first, load-balancing without any
// static analysis. RunDynamic simulates that discipline, bounding what
// static LOAD-BAL's oracle knowledge (exact thread lengths) is worth.

// SchedulePolicy orders the dynamic scheduler's ready queue.
type SchedulePolicy int

const (
	// FIFO hands out threads in creation order.
	FIFO SchedulePolicy = iota
	// LongestFirst hands out the longest remaining thread first (online
	// LPT — needs thread lengths, but no sharing analysis).
	LongestFirst
)

// String names the policy.
func (p SchedulePolicy) String() string {
	if p == LongestFirst {
		return "longest-first"
	}
	return "fifo"
}

// RunDynamic simulates the trace with online self-scheduling instead of a
// static placement: each processor starts ContextsPerProc threads (from
// cfg.MaxContexts, default 1) and pulls the next queued thread whenever a
// context frees. Returns the same Result as Run; Result.Algorithm is
// "DYNAMIC/<policy>".
//
// Implementation: the global queue is consumed through the same engine as
// static runs. Because context-free events occur in deterministic global
// time order, the simulation is reproducible.
func RunDynamic(tr *trace.Trace, cfg Config, policy SchedulePolicy) (*Result, error) {
	return RunDynamicGuarded(tr, cfg, policy, nil, Guard{})
}

// RunDynamicObserved is RunDynamic with an observation probe attached (see
// RunObserved). A nil probe is exactly RunDynamic.
func RunDynamicObserved(tr *trace.Trace, cfg Config, policy SchedulePolicy, probe obs.Probe) (*Result, error) {
	return RunDynamicGuarded(tr, cfg, policy, probe, Guard{})
}

// RunDynamicGuarded is RunDynamicObserved with a watchdog attached (see
// RunGuarded). Dynamic schedules are where the watchdog earns its keep:
// the online scheduler's feedback loop is the one place a bad
// configuration can livelock rather than merely finish slowly.
func RunDynamicGuarded(tr *trace.Trace, cfg Config, policy SchedulePolicy, probe obs.Probe, guard Guard) (*Result, error) {
	pl, queue, err := dynamicSeed(tr, cfg, policy)
	if err != nil {
		return nil, err
	}
	m := buildFastMachine(tr, pl.Clusters, cfg)
	m.dynamic = true
	m.dynQueue = queuedContexts(tr, queue)
	m.probe = probe
	m.guard = newGuardState(guard)
	return m.run(tr, pl)
}

// newDynamicMachine is RunDynamicGuarded's set-up on the reference
// engine, the oracle the dynamic differential suite compares against.
func newDynamicMachine(tr *trace.Trace, cfg Config, policy SchedulePolicy) (*machine, *placement.Placement, error) {
	pl, queue, err := dynamicSeed(tr, cfg, policy)
	if err != nil {
		return nil, nil, err
	}
	m := buildMachine(tr, pl.Clusters, cfg)
	m.dynamic = true
	m.dynQueue = queuedContexts(tr, queue)
	return m, pl, nil
}

// dynamicSeed is the thread ordering and seeding both engines share. It
// orders the threads for policy, seeds each processor with up to
// ContextsPerProc of them (the returned placement) and returns the rest,
// in order, as the global ready queue. Empty threads take no part: they
// finish at cycle 0, so a context given to one would sit done while a
// real thread waited for it.
func dynamicSeed(tr *trace.Trace, cfg Config, policy SchedulePolicy) (*placement.Placement, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	n := tr.NumThreads()
	perProc := max(cfg.MaxContexts, 1)
	if cfg.Processors*perProc > n {
		return nil, nil, fmt.Errorf("sim: dynamic run needs at least %d threads to seed %d processors x %d contexts, got %d",
			cfg.Processors*perProc, cfg.Processors, perProc, n)
	}

	order := make([]int, 0, n)
	for i, th := range tr.Threads {
		if th.Refs() > 0 {
			order = append(order, i)
		}
	}
	if policy == LongestFirst {
		sort.SliceStable(order, func(a, b int) bool {
			la, lb := tr.Threads[order[a]].Instructions(), tr.Threads[order[b]].Instructions()
			if la != lb {
				return la > lb
			}
			return order[a] < order[b]
		})
	}

	clusters := make([][]int, cfg.Processors)
	for q := range clusters {
		k := min(perProc, len(order))
		clusters[q], order = order[:k:k], order[k:]
	}
	pl := &placement.Placement{
		Algorithm: "DYNAMIC/" + policy.String(),
		Clusters:  clusters,
	}
	return pl, order, nil
}

// queuedContexts builds the global ready queue's waiting contexts, each
// positioned at its thread's first reference.
func queuedContexts(tr *trace.Trace, queue []int) []context {
	q := make([]context, len(queue))
	for i, tid := range queue {
		c := &q[i]
		c.thread = tid
		c.cur = tr.Threads[tid].Cursor()
		c.pending, _ = c.cur.Next() // dynamicSeed queues no empty thread
		c.state = ctxUnloaded
	}
	return q
}

// nextQueued pops the head of a dynamic run's ready queue as a ready
// context that will sit at index idx of its new processor.
func nextQueued(queue *[]context, idx int) (context, bool) {
	if len(*queue) == 0 {
		return context{}, false
	}
	c := (*queue)[0]
	*queue = (*queue)[1:]
	c.idx = int32(idx)
	c.state = ctxReady
	return c, true
}

// ---- mid-run checkpoint/restore ----
//
// An OnlineCheckpoint is the engine's mid-run hand-off unit: the
// placement advisor (internal/advise, /v1/advise) consumes it, and a
// paused online run can be resumed from it. The binary encoding is
// deterministic — field order is fixed, matrices are row-major — so a
// round-trip is byte-identical (asserted in the online test suite).

// ckMagic frames an encoded OnlineCheckpoint ("MTC1": multithreaded
// checkpoint, version 1).
const ckMagic = "MTC1"

// maxCheckpointThreads bounds untrusted decode allocations.
const maxCheckpointThreads = 1 << 16

// EncodeOnlineCheckpoint serializes ck deterministically.
func EncodeOnlineCheckpoint(ck *OnlineCheckpoint) []byte {
	n := len(ck.Assign)
	buf := make([]byte, 0, 4+8+8+8+8*n+2*8*n*n)
	buf = append(buf, ckMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(ck.Epoch))
	buf = binary.BigEndian.AppendUint64(buf, ck.Cycle)
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	for _, p := range ck.Assign {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(p)))
	}
	for _, m := range [][][]uint64{ck.Pair, ck.EpochPair} {
		for _, row := range m {
			for _, v := range row {
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
		}
	}
	return buf
}

// DecodeOnlineCheckpoint parses an EncodeOnlineCheckpoint payload,
// rejecting truncation, trailing bytes and oversized thread counts.
func DecodeOnlineCheckpoint(b []byte) (*OnlineCheckpoint, error) {
	if len(b) < 4 || string(b[:4]) != ckMagic {
		return nil, fmt.Errorf("sim: checkpoint: bad magic")
	}
	b = b[4:]
	take := func() (uint64, error) {
		if len(b) < 8 {
			return 0, fmt.Errorf("sim: checkpoint: truncated")
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	epoch, err := take()
	if err != nil {
		return nil, err
	}
	cycle, err := take()
	if err != nil {
		return nil, err
	}
	n64, err := take()
	if err != nil {
		return nil, err
	}
	if n64 > maxCheckpointThreads {
		return nil, fmt.Errorf("sim: checkpoint: %d threads exceeds limit %d", n64, maxCheckpointThreads)
	}
	n := int(n64)
	if want := 8*n + 2*8*n*n; len(b) != want {
		return nil, fmt.Errorf("sim: checkpoint: body is %d bytes, want %d", len(b), want)
	}
	ck := &OnlineCheckpoint{Epoch: int(epoch), Cycle: cycle, Assign: make([]int, n)}
	for i := range ck.Assign {
		v, _ := take()
		ck.Assign[i] = int(int64(v))
	}
	read := func() [][]uint64 {
		m := make([][]uint64, n)
		for i := range m {
			m[i] = make([]uint64, n)
			for j := range m[i] {
				v, _ := take()
				m[i][j] = v
			}
		}
		return m
	}
	ck.Pair = read()
	ck.EpochPair = read()
	return ck, nil
}

// pullDynamic hands the processor the next queued thread, if any,
// installing it in a fresh hardware context.
func (m *machine) pullDynamic(p *proc) {
	if c, ok := nextQueued(&m.dynQueue, len(p.ctxs)); ok {
		p.ctxs = append(p.ctxs, &c)
		p.nextLoad = len(p.ctxs)
	}
}

// pullDynamic is the fast engine's twin of the reference pull above. It
// runs only when a thread completes, never per event. Growing the slab
// may move it; no caller holds a context pointer across the pull.
func (m *fastMachine) pullDynamic(p *fastProc) {
	if c, ok := nextQueued(&m.dynQueue, len(p.ctxs)); ok {
		p.ctxs = append(p.ctxs, c)
		p.nextLoad = len(p.ctxs)
	}
}
