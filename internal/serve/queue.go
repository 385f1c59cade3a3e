package serve

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// cellSpec names one simulation cell of a job, in library terms: the
// suite resolves (app, algorithm, procs, infinite) to (trace, placement,
// config) exactly as cmd/experiments does, or uses the explicit
// placement/config carried here.
type cellSpec struct {
	app       string
	algorithm string // server-side algorithm name; "" when explicit
	procs     int
	infinite  bool

	// Explicit-cell fields (POST /v1/simulate with "placement"/"config").
	explicitPlacement *PlacementSpec
	explicitConfig    *sim.Config
	counters          bool
}

// task is one unit of queue work: cell index cell of job j. enq is the
// enqueue instant, feeding the queue-wait histogram and span.
type task struct {
	j    *Job
	cell int
	enq  time.Time
}

// taskQueue is a bounded FIFO guarded by a mutex and condition variable.
// Pushes never block — a full queue is the caller's backpressure signal
// (HTTP 429) — and TryPushAll is all-or-nothing so a sweep is either
// accepted whole or not at all. Pop blocks until work arrives or the
// queue closes; Close stops the workers immediately and returns whatever
// was still queued so the server can mark those jobs retriable (drain
// semantics: in-flight cells finish, queued cells are handed back).
type taskQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	buf      []task
	head     int
	n        int
	closed   bool
}

func newTaskQueue(capacity int) *taskQueue {
	q := &taskQueue{buf: make([]task, capacity)}
	q.nonEmpty.L = &q.mu
	return q
}

// TryPushAll enqueues all tasks or none. It reports false when the queue
// lacks space for the whole batch or is closed.
func (q *taskQueue) TryPushAll(ts []task) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n+len(ts) > len(q.buf) {
		return false
	}
	for _, t := range ts {
		q.buf[(q.head+q.n)%len(q.buf)] = t
		q.n++
	}
	q.nonEmpty.Broadcast()
	return true
}

// Pop dequeues one task, blocking while the queue is open and empty.
// ok is false once the queue has closed — even if tasks remain; Close
// already collected them.
func (q *taskQueue) Pop() (t task, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.closed {
		return task{}, false
	}
	t = q.buf[q.head]
	q.buf[q.head] = task{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t, true
}

// Depth returns the number of queued tasks.
func (q *taskQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Close shuts the queue and returns the tasks it still held, in order.
// Idempotent; later calls return nil.
func (q *taskQueue) Close() []task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	rest := make([]task, 0, q.n)
	for q.n > 0 {
		rest = append(rest, q.buf[q.head])
		q.buf[q.head] = task{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	q.nonEmpty.Broadcast()
	return rest
}
