package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
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
	j    *job
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

// Per-cell lifecycle states. A cell is pending until a worker picks it
// up, then running, then done or failed. Stolen and drained are the two
// ways a cell leaves a job without running: a steal hands it back to the
// coordinator that leased it, a drain hands the whole job back to the
// client as retriable. Either way the cell never produces a result here
// and is safe to re-run elsewhere (simulations are deterministic and
// idempotent).
const (
	cellPending uint8 = iota
	cellRunning
	cellDone
	cellFailed
	cellStolen
	cellDrained
)

// cellStateNames maps cell states to their wire labels (LeaseStatus).
var cellStateNames = [...]string{
	cellPending: "pending",
	cellRunning: "running",
	cellDone:    "done",
	cellFailed:  "failed",
	cellStolen:  "stolen",
	cellDrained: "drained",
}

// job tracks one accepted request — a sweep, a coordinator lease, or a
// single synchronous cell modeled as a one-cell job so every simulation
// flows through the same queue, accounting and drain path.
type job struct {
	id     string
	params Params // resolved (never nil) workload params
	cells  []cellSpec

	// trace is the distributed-trace context this job's spans hang off.
	// Set once before enqueue, read-only afterwards.
	//
	//mtlint:guard external -- written only by the accepting handler before enqueue publishes the job
	trace obs.SpanContext
	// span is the job's root span, ended when the job reaches a terminal
	// state. Set with trace, under the same write-once contract.
	//
	//mtlint:guard external -- written only by the accepting handler before enqueue publishes the job
	span *obs.ActiveSpan

	// cancel is observed by sim.Guard inside running cells; setting it
	// aborts them with a BudgetError.
	cancel atomic.Bool

	mu        sync.Mutex
	status    string
	states    []uint8 // per-cell lifecycle, indexed like cells
	pending   int     // cells not yet finished (completed+failed accounting)
	completed int
	stolen    int
	results   []cellResultInternal
	err       error

	done chan struct{} // closed by settleLocked, once the last cell leaves
}

// cellResultInternal is a finished cell before wire encoding.
type cellResultInternal struct {
	key    string
	cached bool
	res    *sim.Result
	// counters is set only for single-cell jobs that requested probes
	// and actually simulated.
	counters *obs.Counter
	err      error
}

func newJob(id string, params Params, cells []cellSpec) *job {
	return &job{
		id:      id,
		params:  params,
		cells:   cells,
		status:  StatusQueued,
		states:  make([]uint8, len(cells)),
		pending: len(cells),
		results: make([]cellResultInternal, len(cells)),
		done:    make(chan struct{}),
	}
}

// begin transitions queued → running when the first cell begins and
// claims cell for execution. It reports false when the cell was stolen
// (or drained) while it sat in the queue — the worker must skip it.
func (j *job) begin(cell int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.states[cell] != cellPending {
		return false
	}
	j.states[cell] = cellRunning
	if j.status == StatusQueued {
		j.status = StatusRunning
	}
	return true
}

// finishCell records one cell's outcome; the last cell settles the job,
// and when the job was still live, count is called with its terminal
// status before that status is stored. Returns true when this call
// completed the job.
func (j *job) finishCell(cell int, r cellResultInternal, count func(status string)) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results[cell] = r
	j.pending--
	if r.err == nil {
		j.states[cell] = cellDone
		j.completed++
	} else {
		j.states[cell] = cellFailed
		if j.err == nil {
			j.err = r.err
		}
	}
	if j.pending > 0 {
		return false
	}
	status := j.status
	if j.live() {
		switch {
		case j.cancel.Load() && j.err != nil:
			status = StatusCanceled
		case j.err != nil:
			status = StatusFailed
		default:
			status = StatusDone
		}
		count(status)
	}
	j.settleLocked(status)
	return true
}

// live reports whether the job has not yet turned terminal (caller holds
// j.mu).
func (j *job) live() bool {
	return j.status == StatusQueued || j.status == StatusRunning
}

// settleLocked ends the job's root span, stores its final status and
// closes done, in that order, so anything a client observes after the
// status — a poll, the simulate reply woken by done — finds the complete
// trace. The caller holds j.mu and calls it once: from whichever of the
// three terminal paths (finishCell, steal, drain) takes the job's last
// pending cell.
func (j *job) settleLocked(status string) {
	j.span.End()
	j.status = status
	close(j.done)
}

// steal reclaims up to max not-yet-started cells, preferring the tail of
// the cell list (the classic steal-from-the-back discipline: the owner
// drains its lease front-to-back, thieves take from the opposite end).
// Stolen cells never run here; the caller re-grants them elsewhere.
// Returns the stolen cell indices in ascending order.
func (j *job) steal(max int) []int {
	if max <= 0 {
		return nil
	}
	j.mu.Lock()
	var stolen []int
	for i := len(j.cells) - 1; i >= 0 && len(stolen) < max; i-- {
		if j.states[i] == cellPending {
			j.states[i] = cellStolen
			j.stolen++
			j.pending--
			stolen = append(stolen, i)
		}
	}
	if j.pending == 0 && len(stolen) > 0 {
		status := j.status
		if j.live() {
			status = StatusDone
			if j.err != nil {
				status = StatusFailed
			}
		}
		j.settleLocked(status)
	}
	j.mu.Unlock()
	// Reverse into ascending order (collected back-to-front).
	for l, r := 0, len(stolen)-1; l < r; l, r = l+1, r-1 {
		stolen[l], stolen[r] = stolen[r], stolen[l]
	}
	return stolen
}

// markRetriable finalizes a job whose queued cells were drained before
// running: the client should resubmit (same content-addressed ID) after
// the restart. cells lists the drained queue entries; only those still
// pending count (a stolen cell already left the job's accounting). count
// is called with the retriable status before it is stored. Returns how
// many cells this drain actually took out of the job.
func (j *job) markRetriable(cells []int, count func(status string)) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	drained := 0
	for _, c := range cells {
		if j.states[c] == cellPending {
			j.states[c] = cellDrained
			j.pending--
			drained++
		}
	}
	if drained == 0 {
		return 0
	}
	if j.live() {
		count(StatusRetriable)
		j.status = StatusRetriable
	}
	if j.pending == 0 {
		j.settleLocked(j.status)
	} // else the last in-flight cell settles it, in finishCell
	return drained
}

// snapshot returns the job's wire status. Results are attached only for
// terminal successful jobs (done), matching the polling contract.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		Job:       j.id,
		Status:    j.status,
		Cells:     len(j.cells),
		Completed: j.completed,
		Trace:     j.trace.Trace,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.status == StatusDone {
		st.Results = make([]CellResult, len(j.cells))
		for i, c := range j.cells {
			r := j.results[i]
			st.Results[i] = CellResult{
				App:       c.app,
				Algorithm: c.algorithm,
				Procs:     c.procs,
				Key:       r.key,
				Cached:    r.cached,
				Result:    r.res,
			}
		}
	}
	return st
}

// terminal reports whether the job has reached a final status.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.live()
}

// maxTerminalJobs bounds the registry: terminal jobs beyond this are
// evicted oldest-first, so an unattended server cannot grow without
// bound. Live (queued/running) jobs are never evicted.
const maxTerminalJobs = 256

// jobRegistry indexes jobs by ID and bounds retained terminal jobs.
type jobRegistry struct {
	mu    sync.Mutex
	byID  map[string]*job
	order []string // insertion order, for eviction scans
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{byID: make(map[string]*job)}
}

// get returns the job with this ID, if known.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// add registers a job, evicting surplus terminal jobs. If a job with the
// same ID exists it is returned with existing=true and j is discarded —
// content-addressed IDs make resubmission of an identical sweep a lookup.
func (r *jobRegistry) add(j *job) (reg *job, existing bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[j.id]; ok {
		return prev, true
	}
	r.byID[j.id] = j
	r.order = append(r.order, j.id)
	r.evictLocked()
	return j, false
}

// remove forgets a job (used for one-cell synchronous jobs once their
// response is written; they are never polled).
func (r *jobRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, id)
}

// all returns every registered job.
func (r *jobRegistry) all() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*job, 0, len(r.byID))
	for _, id := range r.order {
		if j, ok := r.byID[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

func (r *jobRegistry) evictLocked() {
	terminal := 0
	for _, id := range r.order {
		if j, ok := r.byID[id]; ok && j.terminal() {
			terminal++
		}
	}
	if terminal <= maxTerminalJobs {
		return
	}
	keep := r.order[:0]
	for _, id := range r.order {
		j, ok := r.byID[id]
		if !ok {
			continue
		}
		if terminal > maxTerminalJobs && j.terminal() {
			delete(r.byID, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	r.order = keep
}
