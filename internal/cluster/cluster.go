package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
	"repro/internal/store"
)

// Options configures a Coordinator.
type Options struct {
	// HeartbeatTimeout declares a worker dead after this much heartbeat
	// silence (default 2s). Death cancels the worker's in-flight calls,
	// and their cells go to other workers.
	HeartbeatTimeout time.Duration
	// Log receives operational messages; nil discards them.
	Log *slog.Logger
	// Store, when non-nil, is the coordinator's durable tier and its
	// crash recovery: every recorded cell result is persisted keyed by
	// its shard address, and every accepted sweep leaves a job record.
	// A restarted coordinator answers "retriable" for each recorded
	// sweep, and a resubmitted sweep restores stored cells without
	// sending them to a worker — the cluster warm-starts from disk. The
	// caller owns the store's lifecycle (Close after Drain).
	Store *store.Store
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 2 * time.Second
	}
	if o.Log == nil {
		o.Log = obs.NewLogger(io.Discard, false)
	}
	return o
}

// worker is one registered mtserve instance.
type worker struct {
	id      string
	metrics workerMetrics

	mu  sync.Mutex
	url string
	cl  *client.Client
	// slots is the worker's pool size, from its registration: the most
	// sweep cells the coordinator keeps in flight on it. inflight counts
	// them.
	slots    int
	inflight int
	lastBeat time.Time
	// silence fires HeartbeatTimeout after the last sign of life and
	// declares the worker dead unless it has heartbeat since.
	silence *time.Timer
	dead    bool
	// ctx bounds every call to the worker's current incarnation; death,
	// a new address and drain cancel it.
	ctx    context.Context
	cancel context.CancelFunc
}

// alive reports whether the worker is routable.
func (w *worker) alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.dead
}

// client returns the worker's client and the context calls to it run
// under.
func (w *worker) client() (*client.Client, context.Context) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cl, w.ctx
}

// take claims one of the worker's slots, if it is alive and has one free.
func (w *worker) take() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.inflight >= w.slots {
		return false
	}
	w.inflight++
	return true
}

// Coordinator shards sweeps across registered mtserve workers. Create
// with New, serve via Handler, stop with Drain.
type Coordinator struct {
	opts    Options
	metrics *coordMetrics
	durable *serve.Durable
	spans   *obs.SpanStore
	bus     *obs.Bus

	// ctx is the parent of every worker's call context; Drain cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	jobs *serve.JobRegistry

	mu       sync.Mutex
	workers  map[string]*worker
	draining bool
	// wake is closed, and replaced, whenever a sweep waiting for a free
	// slot may proceed (notify).
	wake chan struct{}

	wg sync.WaitGroup
}

// New builds a Coordinator.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	metrics := newCoordMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		opts:    opts,
		metrics: metrics,
		durable: serve.NewDurable(metrics.set, "coordinator", opts.Store),
		spans:   obs.NewSpanStore(obs.DefaultSpanCapacity),
		bus:     obs.NewBus(metrics.streamDropped),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    serve.NewJobRegistry(),
		workers: make(map[string]*worker),
		wake:    make(chan struct{}),
	}
}

// Metrics exposes the coordinator's metric registry.
func (c *Coordinator) Metrics() *obs.MetricSet { return c.metrics.set }

// Draining reports whether Drain has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain refuses new work, cancels every call in flight, hands in-flight
// jobs back as retriable (their content-addressed IDs make resubmission
// to a restarted coordinator idempotent) and waits for the schedulers
// to exit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.cancel()
	c.notify()
	c.wg.Wait()
}

// notify wakes every sweep waiting for a free slot: a slot freed, a cell
// went back to pending or was recorded, a worker joined or revived, or
// drain began.
func (c *Coordinator) notify() {
	c.mu.Lock()
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
}

// woken returns the channel the next notify closes.
func (c *Coordinator) woken() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wake
}

// errSilent is the recorded cause of a heartbeat-timeout death.
var errSilent = errors.New("heartbeat timeout")

// register adds or refreshes a worker with its pool size. Registration
// with a new URL starts a new incarnation (a restarted worker on a new
// port): calls to the old address are canceled. Either way the worker
// is revived and its heartbeat clock reset. A full registry forgets its
// dead workers that have nothing in flight before it refuses anyone.
func (c *Coordinator) register(id, url string, slots int, now time.Time) (int, error) {
	c.mu.Lock()
	w, ok := c.workers[id]
	if !ok {
		if len(c.workers) >= MaxWorkers {
			c.forgetDeadLocked()
		}
		if len(c.workers) >= MaxWorkers {
			c.mu.Unlock()
			return 0, &serve.Error{Status: http.StatusTooManyRequests, Message: fmt.Sprintf("cluster is full (%d workers)", MaxWorkers)}
		}
		w = &worker{id: id, metrics: c.metrics.forWorker(id)}
		w.silence = time.AfterFunc(c.opts.HeartbeatTimeout, func() { c.checkSilence(w) })
		c.workers[id] = w
	}
	c.mu.Unlock()

	w.mu.Lock()
	renew := w.url != url
	if renew {
		w.url, w.cl = url, client.New(url)
	}
	w.slots = slots
	c.beatLocked(w, now, renew)
	w.mu.Unlock()

	c.metrics.workersTotal.Inc()
	live := len(c.liveWorkers())
	c.metrics.workersLive.Set(int64(live))
	c.opts.Log.Info("worker registered", "worker", id, "url", url, "slots", slots, "live", live)
	c.notify()
	return live, nil
}

// forgetDeadLocked drops every dead worker with nothing in flight, and
// its per-worker /metrics series, so dead IDs cannot fill the registry
// (caller holds c.mu). A forgotten worker that heartbeats again gets a
// 404 and re-registers.
func (c *Coordinator) forgetDeadLocked() {
	for id, w := range c.workers {
		w.mu.Lock()
		idle := w.dead && w.inflight == 0
		w.mu.Unlock()
		if idle {
			w.silence.Stop()
			w.metrics.drop(c.metrics.set)
			delete(c.workers, id)
		}
	}
}

// beatLocked records a sign of life: the heartbeat clock and the silence
// timer restart, and a dead worker, or a new incarnation (renew), gets a
// fresh call context (caller holds w.mu).
func (c *Coordinator) beatLocked(w *worker, now time.Time, renew bool) {
	w.lastBeat = now
	w.silence.Reset(c.opts.HeartbeatTimeout)
	if w.dead || renew {
		if w.cancel != nil {
			w.cancel()
		}
		w.dead = false
		w.ctx, w.cancel = context.WithCancel(c.ctx)
	}
}

// heartbeat refreshes a worker's liveness; unknown workers error so the
// agent re-registers (a restarted coordinator forgot everyone).
func (c *Coordinator) heartbeat(id string, now time.Time) error {
	c.mu.Lock()
	w, ok := c.workers[id]
	c.mu.Unlock()
	if !ok {
		return &serve.Error{Status: http.StatusNotFound, Message: "unknown worker " + id}
	}
	w.mu.Lock()
	revived := w.dead
	c.beatLocked(w, now, false)
	w.mu.Unlock()
	c.metrics.heartbeats.Inc()
	if revived {
		c.metrics.workersLive.Set(int64(len(c.liveWorkers())))
		c.notify()
	}
	return nil
}

// checkSilence runs when w's silence timer fires: w is declared dead
// unless a heartbeat raced the timer.
func (c *Coordinator) checkSilence(w *worker) {
	w.mu.Lock()
	silent := time.Since(w.lastBeat) >= c.opts.HeartbeatTimeout
	w.mu.Unlock()
	if silent {
		c.markDead(w, errSilent)
	}
}

// markDead declares a worker unroutable, after a transport failure or
// heartbeat silence, and cancels its in-flight calls: their cells go
// back to pending. A later heartbeat or re-registration revives it.
func (c *Coordinator) markDead(w *worker, cause error) {
	w.mu.Lock()
	was := w.dead
	w.dead = true
	w.cancel()
	w.mu.Unlock()
	if !was {
		c.metrics.workerDeaths.Inc()
		c.metrics.workersLive.Set(int64(len(c.liveWorkers())))
		c.opts.Log.Warn("worker declared dead", "worker", w.id, "cause", fmt.Sprint(cause))
	}
}

// liveWorkers snapshots the currently routable workers, sorted by ID
// (the deterministic membership view).
func (c *Coordinator) liveWorkers() []*worker {
	c.mu.Lock()
	ws := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.alive() {
			ws = append(ws, w)
		}
	}
	c.mu.Unlock()
	sort.Slice(ws, func(i, k int) bool { return ws[i].id < ws[k].id })
	return ws
}

// candidates returns the live workers in key's rendezvous order.
func (c *Coordinator) candidates(key rescache.Key) []*worker {
	ws := c.liveWorkers()
	rendezvousOrder(key, ws)
	return ws
}

// cellIdent is one sweep cell: the request that runs it on a worker,
// and its routing address.
type cellIdent struct {
	*serve.SimulateRequest
	shard rescache.Key
}

// label names the cell in spans, logs and errors.
func (c cellIdent) label() string { return fmt.Sprintf("%s/%s/p%d", c.App, c.Algorithm, c.Procs) }

// cellsOf lists a sweep job's cells, in cell order.
func cellsOf(j *serve.Job) []cellIdent {
	reqs := j.Requests()
	cells := make([]cellIdent, len(reqs))
	for i, r := range reqs {
		cells[i] = cellIdent{r, shardOf(r)}
	}
	return cells
}

// SubmitSweep accepts a sweep for distributed execution, joining the
// caller's distributed trace. An identical sweep already registered is
// returned as-is with Existing set, with or without live workers; the
// registry replaces a retriable record (drain, restart or eviction)
// with a fresh run — resubmission is how clients recover — and only a
// fresh run needs a live worker.
func (c *Coordinator) SubmitSweep(req *serve.SweepRequest, parent obs.SpanContext) (*serve.SweepAccepted, error) {
	if err := c.Refusal(); err != nil {
		return nil, err
	}
	// Root span for the whole distributed sweep; every dispatched cell,
	// requeue and worker-side span hangs under it.
	j := serve.NewSweepJob(req, c.spans.Start(parent, coordService, "sweep"))
	if len(c.liveWorkers()) == 0 {
		// A refused retriable sweep keeps its record.
		if reg, ok := c.jobs.Get(j.ID()); ok && reg.Status() != serve.StatusRetriable {
			return reg.Accepted(true), nil
		}
		return nil, errNoWorkers
	}
	reg, existing := c.jobs.Add(j)
	if existing {
		return reg.Accepted(true), nil
	}
	cells := int64(req.Cells())
	c.metrics.jobs.Accept()
	c.metrics.cellsTotal.Add(cells)
	c.metrics.pendingCells.Add(cells)
	c.saveJobRecord(j.ID(), req.Cells())
	j.Publish(c.bus)
	c.wg.Add(1)
	go c.runJob(j)
	return j.Accepted(false), nil
}
