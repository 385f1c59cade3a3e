package serve

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The sweep job both daemons run (DESIGN.md §10 "Execution model"): a
// content-addressed ID, per-cell accounting, results attached once done,
// the outcome counted before it is visible, drain to retriable, and a
// registry that keeps at most maxTerminalJobs finished jobs. mtserve
// runs a job's cells on its own queue and worker pool; the coordinator
// (internal/cluster) sends each to a worker and keeps only what differs:
// slot dispatch, requeue, and the store's job and cell records.

// Per-cell lifecycle states. A cell is pending until it is dispatched,
// then running, then done or failed; a running cell its worker did not
// run goes back to pending (Requeue). Drained is the one way a cell
// leaves a job without running: a drain hands the whole job back to the
// client as retriable, and the cell is safe to re-run elsewhere
// (simulations are deterministic and idempotent).
const (
	cellPending uint8 = iota
	cellRunning
	cellDone
	cellFailed
	cellDrained
)

// Job is one accepted sweep, or on mtserve a single synchronous cell
// modeled as a one-cell job, so every simulation flows through the same
// accounting and drain path. Its owner dispatches the cells, records
// each outcome with Finish, and settles the job once no cell is left
// unfinished: mtserve's worker at once, the coordinator after its store
// flush.
type Job struct {
	id     string
	params Params // resolved (never nil) workload params
	cells  []cellSpec
	// trace is the distributed-trace context the job's spans hang off,
	// and span its root span, ended by Settle.
	trace obs.SpanContext
	span  *obs.ActiveSpan

	// cancel is observed by sim.Guard inside running cells; setting it
	// aborts them with a BudgetError, and a cell dequeued after it is set
	// finishes canceled without running.
	cancel atomic.Bool

	mu         sync.Mutex
	status     string
	states     []uint8 // per-cell lifecycle, indexed like cells
	unfinished int     // cells neither finished nor drained
	completed  int
	drained    int
	results    []CellOutcome
	err        error // the job's error: its first failure

	done chan struct{} // closed by Settle
}

// CellOutcome is one finished cell: its result, or the error that
// failed it.
type CellOutcome struct {
	Key    string
	Cached bool
	Result *sim.Result
	Err    error
	// counters is set only for one-cell jobs that requested probes and
	// actually simulated.
	counters *obs.Counter
}

func newJob(id string, params Params, cells []cellSpec, span *obs.ActiveSpan) *Job {
	return &Job{
		id:         id,
		params:     params,
		cells:      cells,
		trace:      span.Context(),
		span:       span,
		status:     StatusQueued,
		states:     make([]uint8, len(cells)),
		unfinished: len(cells),
		results:    make([]CellOutcome, len(cells)),
		done:       make(chan struct{}),
	}
}

// NewSweepJob builds the job for a sweep under its content-addressed ID
// (SweepJobID). span is the job's root span, ended when it settles; a
// job that turns out to duplicate a registered one never settles, so
// its span is never recorded.
func NewSweepJob(req *SweepRequest, span *obs.ActiveSpan) *Job {
	params := ResolveParams(req.Params)
	return newJob(SweepJobID(params, req), params, sweepCells(req), span)
}

// ID returns the job's ID.
func (j *Job) ID() string { return j.id }

// Trace returns the context the job's spans hang off.
func (j *Job) Trace() obs.SpanContext { return j.trace }

// Done is closed once the job has settled.
func (j *Job) Done() <-chan struct{} { return j.done }

// Requests returns the POST /v1/simulate request of each cell of a
// sweep job, in cell order.
func (j *Job) Requests() []*SimulateRequest {
	params := j.params
	reqs := make([]*SimulateRequest, len(j.cells))
	for i, c := range j.cells {
		reqs[i] = &SimulateRequest{Params: &params, App: c.app, Algorithm: c.algorithm, Procs: c.procs, Infinite: c.infinite}
	}
	return reqs
}

// Begin marks a pending cell running. It reports whether that moved the
// job from queued to running.
func (j *Job) Begin(cell int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.states[cell] = cellRunning
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	return true
}

// Requeue sends a running cell its worker did not run back to pending.
func (j *Job) Requeue(cell int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.states[cell] = cellPending
}

// Finish records a cell's outcome. The first report of a cell wins: a
// later one is dropped, and recorded is false. last reports whether this
// call finished the job's last unfinished cell; its caller then owns
// Settle.
func (j *Job) Finish(cell int, o CellOutcome) (recorded, last bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if s := j.states[cell]; s != cellPending && s != cellRunning {
		return false, false
	}
	j.results[cell] = o
	j.unfinished--
	if o.Err == nil {
		j.states[cell] = cellDone
		j.completed++
	} else {
		j.states[cell] = cellFailed
		if j.err == nil {
			j.err = o.Err
		}
	}
	return true, j.unfinished == 0
}

// Fail sets the job's error unless it has one, so that it settles
// failed (or canceled) whatever its cells report.
func (j *Job) Fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
}

// Drain hands back pending cells that will not run. It reports whether
// that left no cell unfinished; its caller then owns Settle, which makes
// the job retriable.
func (j *Job) Drain(cells []int) (last bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range cells {
		j.states[c] = cellDrained
	}
	j.unfinished -= len(cells)
	j.drained += len(cells)
	return j.unfinished == 0
}

// Pending returns the cells waiting to run, and whether every cell has
// finished.
func (j *Job) Pending() (cells []int, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, s := range j.states {
		if s == cellPending {
			cells = append(cells, i)
		}
	}
	return cells, j.unfinished == 0
}

// Settle moves a job with no unfinished cell to its terminal status:
// retriable when cells were drained, else canceled or failed when it has
// an error, else done. It counts the outcome in m, ends the root span,
// stores the status and closes Done, in that order, so anything a client
// observes after the status — a poll, the simulate reply woken by Done —
// finds the outcome counted and the trace complete. Its owner calls it
// once, then publishes the job.
func (j *Job) Settle(m *JobMetrics) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	status := StatusDone
	switch {
	case j.drained > 0:
		status = StatusRetriable
	case j.err != nil && j.cancel.Load():
		status = StatusCanceled
	case j.err != nil:
		status = StatusFailed
	}
	m.count(status)
	j.span.SetNote(status)
	j.span.End()
	j.status = status
	close(j.done)
	return status
}

// Status returns the job's current wire status.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// terminal reports whether the job has settled.
func (j *Job) terminal() bool { return TerminalStatus(j.Status()) }

// Snapshot returns the job's wire status. Results are attached only once
// the job is done.
func (j *Job) Snapshot() JobStatus {
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
				Key:       r.Key,
				Cached:    r.Cached,
				Result:    r.Result,
			}
		}
	}
	return st
}

// Accepted is the POST /v1/sweep reply for the job; existing marks an
// identical sweep that was already registered.
func (j *Job) Accepted(existing bool) *SweepAccepted {
	st := j.Snapshot()
	return &SweepAccepted{Job: st.Job, Status: st.Status, Cells: st.Cells, Existing: existing, Trace: st.Trace}
}

// Publish emits the job's state as a "job" event on bus.
func (j *Job) Publish(bus *obs.Bus) {
	bus.Publish(JobTopic(j.id), "job", JobEventOf(j.Snapshot()))
}

// PublishCell emits a finished cell's outcome as a "cell" event on bus.
// worker names the worker that ran it on coordinator streams, and is
// empty on a worker's own.
func (j *Job) PublishCell(bus *obs.Bus, cell int, worker string) {
	c := j.cells[cell]
	j.mu.Lock()
	o := j.results[cell]
	j.mu.Unlock()
	ev := CellEvent{
		Job: j.id, Cell: cell, Worker: worker, App: c.app, Algorithm: c.algorithm, Procs: c.procs,
		State: "done", Key: o.Key, Cached: o.Cached,
	}
	if o.Err != nil {
		ev.State = "failed"
		ev.Error = o.Err.Error()
	}
	bus.Publish(JobTopic(j.id), "cell", ev)
}

// maxTerminalJobs bounds a registry: terminal jobs beyond this are
// evicted oldest-first, so an unattended daemon cannot grow without
// bound. Live (queued/running) jobs are never evicted.
const maxTerminalJobs = 256

// JobRegistry indexes a daemon's sweep jobs by ID, each ID once, and
// bounds the terminal jobs it keeps. One-cell jobs are never registered.
type JobRegistry struct {
	mu    sync.Mutex
	byID  map[string]*Job
	order []*Job // registration order, for eviction
}

// NewJobRegistry returns an empty registry.
func NewJobRegistry() *JobRegistry {
	return &JobRegistry{byID: make(map[string]*Job)}
}

// Get returns the job registered under id.
func (r *JobRegistry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// Add registers j under its ID. A job already registered under it is
// returned instead, with existing set — content-addressed IDs make an
// identical resubmission a lookup — unless that job is retriable: a
// retriable record is replaced by j, a fresh run.
func (r *JobRegistry) Add(j *Job) (reg *Job, existing bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[j.id]; ok {
		if prev.Status() != StatusRetriable {
			return prev, true
		}
		r.removeLocked(prev)
	}
	r.insertLocked(j)
	return j, false
}

// AddRetriable registers a retriable record for id — a job known only
// from a durable record — counting it in m before it is visible. A job
// already registered under id is returned instead.
func (r *JobRegistry) AddRetriable(id string, m *JobMetrics) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.byID[id]; ok {
		return j
	}
	j := &Job{id: id, status: StatusRetriable, done: make(chan struct{})}
	close(j.done)
	m.count(StatusRetriable)
	r.insertLocked(j)
	return j
}

// Remove forgets j, a sweep refused after Add. A job registered under
// its ID since is kept.
func (r *JobRegistry) Remove(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID[j.id] == j {
		r.removeLocked(j)
	}
}

func (r *JobRegistry) insertLocked(j *Job) {
	r.byID[j.id] = j
	r.order = append(r.order, j)
	r.evictLocked()
}

func (r *JobRegistry) removeLocked(j *Job) {
	delete(r.byID, j.id)
	r.order = slices.DeleteFunc(r.order, func(o *Job) bool { return o == j })
}

func (r *JobRegistry) evictLocked() {
	terminal := 0
	for _, j := range r.order {
		if j.terminal() {
			terminal++
		}
	}
	if terminal <= maxTerminalJobs {
		return
	}
	r.order = slices.DeleteFunc(r.order, func(j *Job) bool {
		if terminal <= maxTerminalJobs || !j.terminal() {
			return false
		}
		delete(r.byID, j.id)
		terminal--
		return true
	})
}

// JobMetrics counts a daemon's jobs by outcome as <prefix>_jobs_*_total,
// registered under the daemon's metric prefix. Settle counts a job's
// outcome before its status is stored, so /healthz and /metrics are
// never behind what a client can observe.
type JobMetrics struct {
	accepted  *obs.Metric
	completed *obs.Metric
	failed    *obs.Metric
	retriable *obs.Metric
	canceled  *obs.Metric
}

// NewJobMetrics registers the job series under prefix in set.
func NewJobMetrics(set *obs.MetricSet, prefix string) *JobMetrics {
	return &JobMetrics{
		accepted:  set.Counter(prefix+"_jobs_accepted_total", "jobs accepted"),
		completed: set.Counter(prefix+"_jobs_completed_total", "jobs finished successfully"),
		failed:    set.Counter(prefix+"_jobs_failed_total", "jobs finished with an error"),
		retriable: set.Counter(prefix+"_jobs_retriable_total", "jobs handed back retriable by a drain or crash recovery (resubmit after restart)"),
		canceled:  set.Counter(prefix+"_jobs_canceled_total", "jobs canceled by their client"),
	}
}

// Accept counts an accepted job.
func (m *JobMetrics) Accept() { m.accepted.Inc() }

func (m *JobMetrics) count(status string) {
	switch status {
	case StatusDone:
		m.completed.Inc()
	case StatusFailed:
		m.failed.Inc()
	case StatusCanceled:
		m.canceled.Inc()
	case StatusRetriable:
		m.retriable.Inc()
	}
}

// Health returns the /healthz jobs block.
func (m *JobMetrics) Health() JobsHealth {
	return JobsHealth{
		Accepted:  m.accepted.Value(),
		Completed: m.completed.Value(),
		Failed:    m.failed.Value(),
		Retriable: m.retriable.Value(),
		Canceled:  m.canceled.Value(),
	}
}
