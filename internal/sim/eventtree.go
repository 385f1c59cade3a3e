package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// eventTree is the fast engine's event queue: a winner (tournament) tree
// over processors. The engine keeps at most one live event per processor,
// so each processor owns one leaf, holding its pending event packed into
// one word as time<<shift | proc. The reference eventHeap's (time, proc)
// order is then plain integer order, and every internal node holds the
// smaller of its two children, so the root is the next event. Scheduling
// a processor writes its leaf and replays the log2(P) nodes above it with
// branch-free mins; there is no sequence number, because no live event is
// ever superseded in the tree. pop only empties its leaf and leaves the
// replay to the next push or min: the engine almost always reschedules
// the popped processor at once, so each event costs one replay, not two.
//
// The engine leaves an event behind in one place only: an online boundary
// that reschedules an idle processor abandons its pending wake. The
// reference engine keeps such a wake queued until it surfaces, pops it
// (counting a guard step) and skips it, and counts it in every queue
// depth until then. reschedule moves the abandoned key to the side list
// stale, which min and pop drain in key order alongside the tree, so
// guard step counts, BudgetError.Queue and QueueDepth samples stay equal
// to the reference engine's. A stale key that ties a live one pops first.
// The reference heap orders such a tie (a wake falling exactly on a
// boundary) arbitrarily: the two events are interchangeable and step
// counts still agree, but a depth read between them can differ by one
// (TestQuickEventTreeMatchesHeap).
type eventTree struct {
	// node[1] is the root and node[n+p] processor p's leaf; node[0] is
	// unused. An empty leaf holds noEvent.
	node []uint64
	// n is the leaf count: the processor count rounded up to a power of
	// two.
	n int
	// shift is the key's processor field width (procBits).
	shift uint
	// live counts the non-empty leaves.
	live int
	// hole is the leaf pop emptied without replaying its path, or -1.
	hole int
	// stale holds abandoned wakes in descending key order, so the next
	// one to pop is last. It grows only at online boundaries.
	stale []uint64
}

// noEvent marks an empty leaf. maxEventTime keeps every packed key below
// it.
const noEvent = ^uint64(0)

// procBits is the width of a key's processor field on a procs-processor
// machine. It is at least one, which keeps every event time below 2^63
// (see maxEventTime).
func procBits(procs int) uint { return uint(bits.Len(uint(procs-1) | 1)) }

// maxEventTime is the latest simulated time an event may carry on a
// procs-processor machine: the key's time field (64 bits minus procBits)
// less its top value, so no key equals noEvent. Both engines check every
// event time they schedule and every thread finish time against it and
// abort the run past it (errTimeOverflow), so simulated time can neither
// leave the field nor wrap: times stay below 2^63 and every cycle
// parameter is at most maxCycles, so no sum of a checked time and two
// parameters reaches 2^64.
func maxEventTime(procs int) uint64 { return 1<<(64-procBits(procs)) - 2 }

// errTimeOverflow is the cause of a run aborted because its simulated
// time passed maxEventTime.
var errTimeOverflow = errors.New("simulated time overflow")

// timeOverflow is the abort diagnostic both engines return for the first
// time t past maxEventTime.
func timeOverflow(app, alg string, t uint64, procs int) error {
	return fmt.Errorf("sim: %s/%s: %w: cycle %d is past the %d-cycle limit of a %d-processor machine",
		app, alg, errTimeOverflow, t, maxEventTime(procs), procs)
}

func newEventTree(procs int) eventTree {
	n := 1
	for n < procs {
		n <<= 1
	}
	node := make([]uint64, 2*n)
	for i := range node {
		node[i] = noEvent
	}
	return eventTree{node: node, n: n, shift: procBits(procs), hole: -1}
}

// len is the number of queued events, stale ones included: the depth
// the reference heap would report.
//
//mtlint:hotpath
func (q *eventTree) len() int { return q.live + len(q.stale) }

// time and proc unpack a key.
//
//mtlint:hotpath
func (q *eventTree) time(key uint64) uint64 { return key >> q.shift }

//mtlint:hotpath
func (q *eventTree) proc(key uint64) int { return int(key & (1<<q.shift - 1)) }

// set writes processor p's leaf and replays its path to the root.
//
//mtlint:hotpath
func (q *eventTree) set(p int, key uint64) {
	i := q.n + p
	q.node[i] = key
	for i > 1 {
		key = min(key, q.node[i^1])
		i >>= 1
		q.node[i] = key
	}
}

// push schedules processor p, which has no pending event, at time t.
//
//mtlint:hotpath
func (q *eventTree) push(t uint64, p int) {
	if q.hole == p {
		q.hole = -1 // this replay covers the hole's path
	}
	q.live++
	q.set(p, t<<q.shift|uint64(p))
}

// min returns the next event's key and whether it is stale, or noEvent
// when the queue is empty.
//
//mtlint:hotpath
func (q *eventTree) min() (key uint64, stale bool) {
	if q.hole >= 0 {
		q.set(q.hole, noEvent)
		q.hole = -1
	}
	key = q.node[1]
	if n := len(q.stale); n != 0 && q.stale[n-1] <= key {
		return q.stale[n-1], true
	}
	return key, false
}

// pop removes the event min just returned.
//
//mtlint:hotpath
func (q *eventTree) pop(key uint64, stale bool) {
	if stale {
		q.stale = q.stale[:len(q.stale)-1]
		return
	}
	q.live--
	q.hole = q.proc(key)
	q.node[q.n+q.hole] = noEvent
}

// reschedule schedules processor p at time t, moving its pending event,
// if any, to the side list: an online boundary re-activating an idle
// processor, the one place the engine abandons an event.
func (q *eventTree) reschedule(t uint64, p int) {
	if old := q.node[q.n+p]; old != noEvent {
		i := len(q.stale)
		q.stale = append(q.stale, old)
		for ; i > 0 && q.stale[i-1] < old; i-- {
			q.stale[i] = q.stale[i-1]
		}
		q.stale[i] = old
		q.live--
	}
	q.push(t, p)
}
