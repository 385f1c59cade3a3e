package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
	"repro/internal/serve/webhook"
	"repro/internal/store"
	"repro/internal/workload"
)

// Options configures a Coordinator.
type Options struct {
	// HeartbeatTimeout declares a worker dead after this much heartbeat
	// silence (default 2s). Dead workers' in-flight cells are requeued.
	HeartbeatTimeout time.Duration
	// PollInterval paces the per-job scheduling loop: lease harvesting,
	// granting, death sweeps and steals (default 10ms).
	PollInterval time.Duration
	// LeaseChunk bounds the cells granted per lease (default 16). Smaller
	// chunks give stealing finer granularity; larger ones amortize
	// round-trips.
	LeaseChunk int
	// StealMin is the minimum pending cells a lease must hold before an
	// idle worker steals from it (default 2: never steal a lone tail cell
	// that is about to run anyway).
	StealMin int
	// Journal, when non-empty, is the path of an MTJ1 journal recording
	// accepted jobs, per-cell result keys and completions. A restarted
	// coordinator replays it: interrupted jobs answer "retriable" (the
	// client resubmits the identical content-addressed sweep), and
	// post-crash re-executions are cross-checked cell by cell against the
	// journaled result keys.
	Journal string
	// Log receives operational messages; nil discards them.
	Log *slog.Logger
	// SpanCapacity bounds the coordinator's span store
	// (obs.DefaultSpanCapacity when 0).
	SpanCapacity int
	// DisableTelemetry turns off distributed tracing and the job-progress
	// event bus. Histograms stay on — they are three atomic adds.
	DisableTelemetry bool
	// Store, when non-nil, is the coordinator's durable result tier:
	// every harvested cell result is persisted keyed by its shard
	// address, and a resubmitted (or crash-recovered) sweep restores
	// stored cells without leasing them out — the cluster warm-starts
	// from disk. The caller owns the store's lifecycle (Close after
	// Drain).
	Store *store.Store
	// Webhooks, when non-nil, delivers terminal job states for sweeps
	// submitted with a webhook_url. The caller owns the dispatcher's
	// lifecycle (Close after Drain).
	Webhooks *webhook.Dispatcher
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 2 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 10 * time.Millisecond
	}
	if o.LeaseChunk <= 0 {
		o.LeaseChunk = 16
	}
	if o.StealMin <= 0 {
		o.StealMin = 2
	}
	return o
}

// worker is one registered mtserve instance.
type worker struct {
	id      string
	metrics workerMetrics

	mu       sync.Mutex
	url      string
	cl       *client.Client
	lastBeat time.Time
	dead     bool
}

// alive reports whether the worker is routable: not transport-dead and
// heartbeating within the timeout.
func (w *worker) alive(now time.Time, timeout time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.dead && now.Sub(w.lastBeat) <= timeout
}

func (w *worker) client() *client.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cl
}

// Coordinator shards sweeps across registered mtserve workers. Create
// with New, serve via Handler, stop with Drain.
type Coordinator struct {
	opts    Options
	metrics *coordMetrics
	journal *coordJournal  // nil when journaling is off
	spans   *obs.SpanStore // nil when telemetry is disabled
	bus     *obs.Bus       // nil when telemetry is disabled

	mu       sync.Mutex
	workers  map[string]*worker
	jobs     map[string]*cjob
	order    []string // job insertion order, for eviction
	draining bool

	wg sync.WaitGroup
}

// New builds a Coordinator. With Options.Journal set, an existing
// journal is replayed first: jobs accepted but not completed before the
// crash come back as retriable records.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:    opts,
		metrics: newCoordMetrics(),
		workers: make(map[string]*worker),
		jobs:    make(map[string]*cjob),
	}
	if !opts.DisableTelemetry {
		c.spans = obs.NewSpanStore(opts.SpanCapacity)
		c.bus = obs.NewBus(c.metrics.streamDropped)
	}
	if opts.Journal != "" {
		j, interrupted, err := openCoordJournal(opts.Journal)
		if err != nil {
			return nil, err
		}
		c.journal = j
		for _, id := range interrupted {
			c.jobs[id] = retriableJob(id)
			c.order = append(c.order, id)
			c.metrics.jobsRetriable.Inc()
			if opts.Log != nil {
				opts.Log.Info("journal recovery: job marked retriable", "job", id)
			}
		}
	}
	return c, nil
}

// Metrics exposes the coordinator's metric registry.
func (c *Coordinator) Metrics() *obs.MetricSet { return c.metrics.set }

// Draining reports whether Drain has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain refuses new work, hands in-flight jobs back as retriable (their
// content-addressed IDs make resubmission to a restarted coordinator
// idempotent) and waits for the schedulers to exit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.wg.Wait()
	if c.journal != nil {
		c.journal.close()
	}
}

// register adds or refreshes a worker. Re-registration with a new URL
// replaces the client (a restarted worker on a new port); either way the
// worker is revived and its heartbeat clock reset.
func (c *Coordinator) register(id, url string, now time.Time) (int, error) {
	c.mu.Lock()
	w, ok := c.workers[id]
	if !ok {
		if len(c.workers) >= MaxWorkers {
			c.mu.Unlock()
			return 0, fmt.Errorf("cluster is full (%d workers)", MaxWorkers)
		}
		w = &worker{id: id, metrics: c.metrics.forWorker(id)}
		c.workers[id] = w
	}
	c.mu.Unlock()

	w.mu.Lock()
	if w.cl == nil || w.url != url {
		w.url = url
		w.cl = client.New(url)
	}
	w.lastBeat = now
	w.dead = false
	w.mu.Unlock()

	c.metrics.workersTotal.Inc()
	live := c.liveWorkerIDs(now)
	c.metrics.workersLive.Set(int64(len(live)))
	if c.opts.Log != nil {
		c.opts.Log.Info("worker registered", "worker", id, "url", url, "live", len(live))
	}
	return len(live), nil
}

// heartbeat refreshes a worker's liveness; unknown workers error so the
// agent re-registers (a restarted coordinator forgot everyone).
func (c *Coordinator) heartbeat(id string, now time.Time) error {
	c.mu.Lock()
	w, ok := c.workers[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown worker %s", id)
	}
	w.mu.Lock()
	w.lastBeat = now
	w.dead = false
	w.mu.Unlock()
	c.metrics.heartbeats.Inc()
	c.metrics.workersLive.Set(int64(len(c.liveWorkerIDs(now))))
	return nil
}

// markDead declares a worker unroutable after a transport failure (the
// heartbeat-timeout path flows through alive() instead). A later
// heartbeat or re-registration revives it.
func (c *Coordinator) markDead(w *worker, cause error) {
	w.mu.Lock()
	was := w.dead
	w.dead = true
	w.mu.Unlock()
	if !was {
		c.metrics.workerDeaths.Inc()
		c.metrics.workersLive.Set(int64(len(c.liveWorkerIDs(time.Now()))))
		if c.opts.Log != nil {
			c.opts.Log.Warn("worker declared dead", "worker", w.id, "cause", fmt.Sprint(cause))
		}
	}
}

// liveWorkerIDs snapshots the currently routable workers, sorted (the
// deterministic membership view every scheduling decision uses).
func (c *Coordinator) liveWorkerIDs(now time.Time) []string {
	c.mu.Lock()
	ids := make([]string, 0, len(c.workers))
	for id, w := range c.workers {
		if w.alive(now, c.opts.HeartbeatTimeout) {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// workerByID returns a registered worker.
func (c *Coordinator) workerByID(id string) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[id]
}

// Cluster-side cell lifecycle.
const (
	cPending uint8 = iota // waiting for a lease
	cLeased               // granted to a worker, result outstanding
	cDone
	cFailed
)

// cellIdent names one sweep cell and its routing address.
type cellIdent struct {
	app, alg string
	procs    int
	shard    rescache.Key
}

// cjob is one accepted sweep on the coordinator.
type cjob struct {
	id       string
	params   serve.Params
	infinite bool
	cells    []cellIdent

	// trace is the sweep's distributed-trace context and span its root
	// span, ended at the terminal state (zero/nil when telemetry is
	// disabled). Write-once before runJob starts, read-only after.
	trace obs.SpanContext
	span  *obs.ActiveSpan
	// webhookURL is the sweep's terminal-state delivery target ("" for
	// none). Write-once before runJob starts, read-only after.
	webhookURL string

	mu        sync.Mutex
	status    string
	states    []uint8
	leaseOf   []string // current owning lease ID per cell ("" when pending)
	results   []serve.CellResult
	completed int
	failed    int
	errmsg    string

	doneOnce sync.Once
	done     chan struct{} // closed at the terminal state
}

// finish closes the done channel and ends the root span, exactly once
// across the finalize and retire paths.
func (j *cjob) finish() {
	j.doneOnce.Do(func() {
		close(j.done)
		j.span.End()
	})
}

func retriableJob(id string) *cjob {
	j := &cjob{id: id, status: serve.StatusRetriable, done: make(chan struct{})}
	close(j.done)
	return j
}

func (j *cjob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case serve.StatusDone, serve.StatusFailed, serve.StatusRetriable, serve.StatusCanceled:
		return true
	}
	return false
}

// snapshot renders the job's wire status, with results attached once
// done (same polling contract as mtserve).
func (j *cjob) snapshot() serve.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := serve.JobStatus{
		Job:       j.id,
		Status:    j.status,
		Cells:     len(j.cells),
		Completed: j.completed,
		Error:     j.errmsg,
		Trace:     j.trace.Trace,
	}
	if j.status == serve.StatusDone {
		st.Results = append([]serve.CellResult(nil), j.results...)
	}
	return st
}

// resultOf snapshots one cell's recorded result.
func (j *cjob) resultOf(ci int) serve.CellResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results[ci]
}

// pendingIndices returns the cells waiting for a lease.
func (j *cjob) pendingIndices() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []int
	for i, s := range j.states {
		if s == cPending {
			out = append(out, i)
		}
	}
	return out
}

// finished reports whether every cell is accounted for.
func (j *cjob) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed+j.failed == len(j.cells)
}

// errNoWorkers refuses sweeps while the cluster has no live members.
var errNoWorkers = errors.New("no live workers registered")

// errDraining refuses work during shutdown.
var errDraining = errors.New("coordinator is draining")

// resolveParams fills nil request params with the library defaults,
// exactly as the workers do — coordinator and worker must agree on cell
// identity.
func resolveParams(p *serve.Params) serve.Params {
	if p != nil {
		return *p
	}
	d := workload.DefaultParams()
	return serve.Params{Scale: d.Scale, Seed: d.Seed}
}

// SubmitSweep accepts a sweep for distributed execution and returns its
// job record. An identical sweep already known is returned as-is with
// existing=true; a retriable record (drain or crash recovery) is
// replaced by a fresh run — resubmission is how clients recover.
func (c *Coordinator) SubmitSweep(req *serve.SweepRequest) (st serve.JobStatus, existing bool, err error) {
	return c.SubmitSweepTraced(req, obs.SpanContext{})
}

// SubmitSweepTraced is SubmitSweep joining the caller's distributed
// trace (a fresh trace is minted when ctx is zero and telemetry is on).
func (c *Coordinator) SubmitSweepTraced(req *serve.SweepRequest, ctx obs.SpanContext) (st serve.JobStatus, existing bool, err error) {
	if c.Draining() {
		return serve.JobStatus{}, false, errDraining
	}
	now := time.Now()
	live := c.liveWorkerIDs(now)
	if len(live) == 0 {
		return serve.JobStatus{}, false, errNoWorkers
	}
	params := resolveParams(req.Params)
	id := serve.SweepJobID(params, req)

	c.mu.Lock()
	if prev, ok := c.jobs[id]; ok {
		retriable := prev.terminal() && prev.snapshot().Status == serve.StatusRetriable
		if !retriable {
			c.mu.Unlock()
			return prev.snapshot(), true, nil
		}
		delete(c.jobs, id) // forget the stale record, rerun below
	}
	j := &cjob{
		id:         id,
		params:     params,
		infinite:   req.Infinite,
		webhookURL: req.WebhookURL,
		status:     serve.StatusQueued,
		done:       make(chan struct{}),
	}
	for _, app := range req.Apps {
		for _, alg := range req.Algorithms {
			for _, p := range req.Procs {
				j.cells = append(j.cells, cellIdent{
					app: app, alg: alg, procs: p,
					shard: CellShardKey(params, app, alg, p, req.Infinite),
				})
			}
		}
	}
	j.states = make([]uint8, len(j.cells))
	j.leaseOf = make([]string, len(j.cells))
	j.results = make([]serve.CellResult, len(j.cells))
	for i, cell := range j.cells {
		j.results[i] = serve.CellResult{App: cell.app, Algorithm: cell.alg, Procs: cell.procs}
	}
	if c.spans != nil {
		// Root span for the whole distributed sweep; every lease grant,
		// steal, requeue and worker-side span hangs under it.
		if !ctx.Valid() {
			ctx = obs.NewTrace()
		}
		j.span = c.spans.Start(ctx, coordService, "sweep")
		j.trace = j.span.Context()
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.evictLocked()
	c.mu.Unlock()

	c.metrics.jobsAccepted.Inc()
	c.metrics.cellsTotal.Add(int64(len(j.cells)))
	c.metrics.pendingCells.Add(int64(len(j.cells)))
	if c.journal != nil {
		if jerr := c.journal.jobAccepted(id, len(j.cells)); jerr != nil && c.opts.Log != nil {
			c.opts.Log.Warn("journal write failed", "job", id, "err", jerr.Error())
		}
	}
	c.publishJob(j)
	c.wg.Add(1)
	go c.runJob(j)
	return j.snapshot(), false, nil
}

// Job returns a job's status by ID.
func (c *Coordinator) Job(id string) (serve.JobStatus, bool) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return serve.JobStatus{}, false
	}
	return j.snapshot(), true
}

// evictLocked bounds retained terminal jobs (caller holds c.mu).
func (c *Coordinator) evictLocked() {
	const maxTerminal = 256
	terminal := 0
	for _, id := range c.order {
		if j, ok := c.jobs[id]; ok && j.terminal() {
			terminal++
		}
	}
	if terminal <= maxTerminal {
		return
	}
	keep := c.order[:0]
	for _, id := range c.order {
		j, ok := c.jobs[id]
		if !ok {
			continue
		}
		if terminal > maxTerminal && j.terminal() {
			delete(c.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	c.order = keep
}
