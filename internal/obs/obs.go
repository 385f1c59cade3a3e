// Package obs is the simulator's observability layer: a Probe interface
// the simulation engines invoke at every interesting event (thread
// scheduling, cache hits and misses, coherence messages, context switches,
// event-queue depth), plus consumers that turn those events into
// time-series samples (Sampler), Perfetto/Chrome trace-event timelines
// (Tracer) and plain counters (Counter).
//
// The contract with internal/sim is strict:
//
//   - Probes observe; they never mutate simulation state. A run with any
//     probe attached produces a Result deeply equal to the same run with
//     no probe (asserted by the differential suite in internal/core).
//   - The disabled path is free: engines guard every emission with a
//     single nil check, and a nil probe adds no allocations to the hot
//     path (asserted by BenchmarkEngineProbeDisabled).
//   - Event times are simulated cycles. Within one thread the Run →
//     Pause/Finish sequence is time-ordered, but times are NOT globally
//     monotone: an engine processing an event at cycle t may immediately
//     report a completion at t + latency, while the next engine event is
//     earlier. Consumers must bucket by time, not assume ordering.
package obs

// MissClass classifies a cache miss. The values mirror internal/sim's
// MissKind exactly (compulsory, intra-thread conflict, inter-thread
// conflict, invalidation); a test in internal/sim locks the
// correspondence so neither enum can drift.
type MissClass uint8

const (
	// MissCompulsory is the first reference to a block by a processor.
	MissCompulsory MissClass = iota
	// MissConflictIntra re-fetches a block the same thread evicted.
	MissConflictIntra
	// MissConflictInter re-fetches a block a co-located thread evicted.
	MissConflictInter
	// MissInvalidation re-fetches a block a remote write invalidated.
	MissInvalidation
	// NumMissClasses is the number of miss classes.
	NumMissClasses
)

// String names the miss class.
func (c MissClass) String() string {
	switch c {
	case MissCompulsory:
		return "compulsory"
	case MissConflictIntra:
		return "conflict-intra"
	case MissConflictInter:
		return "conflict-inter"
	case MissInvalidation:
		return "invalidation"
	}
	return "unknown"
}

// RunMeta identifies a simulation run to a probe.
type RunMeta struct {
	// App and Algorithm name the workload and placement.
	App, Algorithm string
	// Engine is "fast" or "reference".
	Engine string
	// Processors and Threads size the machine and workload.
	Processors, Threads int
}

// Probe receives simulation events. Implementations must be cheap — every
// method is called from the engine's hot loop — and must not retain or
// mutate engine state. All times are simulated cycles.
//
// Thread lifecycle as seen by a probe: ThreadRun fires when a hardware
// context is scheduled onto its processor's pipeline; ThreadPause fires
// when the running thread issues a blocking memory transaction at time t
// that completes at resumeAt (the context is stalled in between);
// ThreadFinish fires when the thread's last reference completes. A thread
// that ends on a blocking transaction emits ThreadPause(t, …, done)
// followed by ThreadFinish(done, …); one that ends on a cache hit emits
// only ThreadFinish.
type Probe interface {
	// RunBegin fires once before the first event.
	RunBegin(meta RunMeta)
	// RunEnd fires once after the last event with the execution time.
	RunEnd(execTime uint64)
	// ThreadRun: the processor schedules the thread's context.
	ThreadRun(t uint64, proc, thread int)
	// ThreadPause: the thread issues a blocking transaction at t and its
	// context stalls until resumeAt.
	ThreadPause(t uint64, proc, thread int, resumeAt uint64)
	// ThreadFinish: the thread's final reference completes at t.
	ThreadFinish(t uint64, proc, thread int)
	// CacheHit: a reference was satisfied without a network transaction.
	CacheHit(t uint64, proc, thread int)
	// CacheMiss: a reference missed; class mirrors sim.MissKind.
	CacheMiss(t uint64, proc, thread int, class MissClass)
	// Invalidation: proc from's write invalidated a copy in proc to.
	Invalidation(t uint64, from, to int)
	// Update: proc from's write pushed a new value to proc to
	// (write-update protocol).
	Update(t uint64, from, to int)
	// PairTraffic: one unit of pairwise coherence traffic from → to
	// (invalidation messages, dirty-data fetches, update messages —
	// exactly the events behind Result.PairTraffic).
	PairTraffic(t uint64, from, to int)
	// ContextSwitch: the processor paid the pipeline-drain cost to switch
	// contexts.
	ContextSwitch(t uint64, proc int)
	// QueueDepth: the engine's event-queue depth after dequeuing the
	// event being processed at time t. Queue depth is engine-internal
	// bookkeeping: the two engines agree on every architectural event
	// above, but may momentarily disagree on stale-entry counts here.
	QueueDepth(t uint64, depth int)
	// Fault: a resilience event (a watchdog trip) at time t. Fault
	// events are emitted by the robustness layer, not the architectural
	// simulation, and are always cold-path.
	Fault(t uint64, kind FaultKind)
	// Migrate: online adaptive placement moved a thread from processor
	// from to processor to at a detection boundary at time t. Emitted
	// only by online runs (sim.RunOnlineGuarded), always cold-path.
	Migrate(t uint64, thread, from, to int)
}

// multi fans events out to several probes in order.
type multi []Probe

// Multi combines probes into one; nil entries are dropped. It returns nil
// when nothing remains and the sole probe unwrapped, so engines keep their
// single nil check.
func Multi(probes ...Probe) Probe {
	var ps multi
	for _, p := range probes {
		if p != nil {
			ps = append(ps, p)
		}
	}
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return ps
}

func (m multi) RunBegin(meta RunMeta) {
	for _, p := range m {
		p.RunBegin(meta)
	}
}
func (m multi) RunEnd(execTime uint64) {
	for _, p := range m {
		p.RunEnd(execTime)
	}
}
func (m multi) ThreadRun(t uint64, proc, thread int) {
	for _, p := range m {
		p.ThreadRun(t, proc, thread)
	}
}
func (m multi) ThreadPause(t uint64, proc, thread int, resumeAt uint64) {
	for _, p := range m {
		p.ThreadPause(t, proc, thread, resumeAt)
	}
}
func (m multi) ThreadFinish(t uint64, proc, thread int) {
	for _, p := range m {
		p.ThreadFinish(t, proc, thread)
	}
}
func (m multi) CacheHit(t uint64, proc, thread int) {
	for _, p := range m {
		p.CacheHit(t, proc, thread)
	}
}
func (m multi) CacheMiss(t uint64, proc, thread int, class MissClass) {
	for _, p := range m {
		p.CacheMiss(t, proc, thread, class)
	}
}
func (m multi) Invalidation(t uint64, from, to int) {
	for _, p := range m {
		p.Invalidation(t, from, to)
	}
}
func (m multi) Update(t uint64, from, to int) {
	for _, p := range m {
		p.Update(t, from, to)
	}
}
func (m multi) PairTraffic(t uint64, from, to int) {
	for _, p := range m {
		p.PairTraffic(t, from, to)
	}
}
func (m multi) ContextSwitch(t uint64, proc int) {
	for _, p := range m {
		p.ContextSwitch(t, proc)
	}
}
func (m multi) QueueDepth(t uint64, depth int) {
	for _, p := range m {
		p.QueueDepth(t, depth)
	}
}

// Counter is the cheapest possible probe: one counter per event kind.
// It doubles as the overhead floor for probe-on benchmarking and as the
// consistency oracle in tests (its counts must match Result totals).
type Counter struct {
	Runs          uint64
	ThreadRuns    uint64
	Pauses        uint64
	Finishes      uint64
	Hits          uint64
	Misses        [NumMissClasses]uint64
	Invalidations uint64
	Updates       uint64
	Pair          uint64
	Switches      uint64
	QueueSamples  uint64
	Faults        [NumFaultKinds]uint64
	Migrations    uint64
	MaxQueueDepth int
	ExecTime      uint64
	Meta          RunMeta
}

// TotalMisses sums the per-class miss counts.
func (c *Counter) TotalMisses() uint64 {
	var n uint64
	for _, m := range c.Misses {
		n += m
	}
	return n
}

// RunBegin implements Probe.
func (c *Counter) RunBegin(meta RunMeta) { c.Runs++; c.Meta = meta }

// RunEnd implements Probe.
func (c *Counter) RunEnd(execTime uint64) { c.ExecTime = execTime }

// ThreadRun implements Probe.
func (c *Counter) ThreadRun(t uint64, proc, thread int) { c.ThreadRuns++ }

// ThreadPause implements Probe.
func (c *Counter) ThreadPause(t uint64, proc, thread int, resumeAt uint64) { c.Pauses++ }

// ThreadFinish implements Probe.
func (c *Counter) ThreadFinish(t uint64, proc, thread int) { c.Finishes++ }

// CacheHit implements Probe.
func (c *Counter) CacheHit(t uint64, proc, thread int) { c.Hits++ }

// CacheMiss implements Probe.
func (c *Counter) CacheMiss(t uint64, proc, thread int, class MissClass) { c.Misses[class]++ }

// Invalidation implements Probe.
func (c *Counter) Invalidation(t uint64, from, to int) { c.Invalidations++ }

// Update implements Probe.
func (c *Counter) Update(t uint64, from, to int) { c.Updates++ }

// PairTraffic implements Probe.
func (c *Counter) PairTraffic(t uint64, from, to int) { c.Pair++ }

// ContextSwitch implements Probe.
func (c *Counter) ContextSwitch(t uint64, proc int) { c.Switches++ }

// QueueDepth implements Probe.
func (c *Counter) QueueDepth(t uint64, depth int) {
	c.QueueSamples++
	if depth > c.MaxQueueDepth {
		c.MaxQueueDepth = depth
	}
}
