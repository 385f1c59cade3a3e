package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/resilience"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the task queue (default 4 * Workers * 32); a full
	// queue answers 429.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (default
	// 4096 results).
	CacheEntries int
	// MaxSteps is the per-cell simulation step budget (0 = unlimited).
	MaxSteps uint64
	// RequestTimeout cancels a cell's simulation wall-clock-wise
	// (0 = no timeout). Enforced via the job's cancel flag, which the
	// simulator polls, so a stuck cell aborts with a BudgetError.
	RequestTimeout time.Duration
	// BeforeCell, when non-nil, runs at the start of every cell
	// execution. It is a test hook (chaos tests slow one worker down to
	// manufacture a straggler, the overlap test holds each worker at a
	// barrier); nil in production.
	BeforeCell func()
	// ServiceName labels this server's spans on the distributed-trace
	// timeline (default "mtserve"; clustered workers use their worker ID).
	ServiceName string
	// Store, when non-nil, is the durable result tier under the in-memory
	// cache: cache miss → store probe → simulate, with every fresh result
	// written back. The caller owns the store's lifecycle (Close after
	// Drain). Nil means memory-only, exactly the pre-store behavior.
	Store *store.Store
	// Log receives operational messages; nil discards them.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		// Default: a single maximal sweep must be acceptable when idle
		// (the all-or-nothing push would otherwise always refuse it).
		// An explicit smaller depth is honored — tests and memory-tight
		// deployments trade sweep size for footprint.
		o.QueueDepth = o.Workers * 128
		if o.QueueDepth < MaxSweepCells {
			o.QueueDepth = MaxSweepCells
		}
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.ServiceName == "" {
		o.ServiceName = "mtserve"
	}
	if o.Log == nil {
		o.Log = obs.NewLogger(io.Discard, false)
	}
	return o
}

// suiteEntry is one cached core.Suite, keyed by workload params. The
// server uses suites only to resolve cells — traces, sharing data,
// placements, per-app configs — never Suite.RunOne, so a suite's memory
// stays bounded by the workload, not by the request history (results
// live in the server's own LRU instead).
type suiteEntry struct {
	params Params
	suite  *core.Suite
	used   uint64 // LRU tick
}

// maxSuites bounds distinct workload-param sets kept resident.
const maxSuites = 4

// flight deduplicates concurrent misses on the same cell key: the first
// worker simulates, later workers wait and share the result.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// serverMetrics is every /metrics series, registered once at startup so
// the exposition is complete (all series present, zero-valued) from the
// first scrape.
type serverMetrics struct {
	set  *obs.MetricSet
	http *RequestMetrics

	rejectedFull  *obs.Metric
	cacheHits     *obs.Metric
	cacheMisses   *obs.Metric
	cacheEvicts   *obs.Metric
	simRuns       *obs.Metric
	simFailures   *obs.Metric
	jobsAccepted  *obs.Metric
	jobsCompleted *obs.Metric
	jobsFailed    *obs.Metric
	jobsRetriable *obs.Metric
	jobsCanceled  *obs.Metric
	sfShared      *obs.Metric
	leasesGranted *obs.Metric
	cellsStolen   *obs.Metric
	queueDepth    *obs.Metric
	inFlight      *obs.Metric
	workers       *obs.Metric
	streamDropped *obs.Metric

	queueWait  *obs.Histogram
	engineRate *obs.Histogram
}

func newServerMetrics() *serverMetrics {
	s := obs.NewMetricSet()
	return &serverMetrics{
		set:           s,
		http:          NewRequestMetrics(s, "serve"),
		rejectedFull:  s.Counter("serve_rejected_queue_full_total", "requests refused with 429 because the queue was full"),
		cacheHits:     s.Counter("serve_cache_hits_total", "result cache hits"),
		cacheMisses:   s.Counter("serve_cache_misses_total", "result cache misses"),
		cacheEvicts:   s.Counter("serve_cache_evictions_total", "result cache evictions"),
		simRuns:       s.Counter("serve_sim_runs_total", "simulations executed (cache misses actually run)"),
		simFailures:   s.Counter("serve_sim_failures_total", "simulations that returned an error"),
		jobsAccepted:  s.Counter("serve_jobs_accepted_total", "jobs accepted into the queue"),
		jobsCompleted: s.Counter("serve_jobs_completed_total", "jobs finished successfully"),
		jobsFailed:    s.Counter("serve_jobs_failed_total", "jobs finished with an error"),
		jobsRetriable: s.Counter("serve_jobs_retriable_total", "jobs drained before completion (resubmit after restart)"),
		jobsCanceled:  s.Counter("serve_jobs_canceled_total", "jobs canceled by their client"),
		sfShared:      s.Counter("serve_singleflight_shared_total", "cell computations shared between concurrent identical requests"),
		leasesGranted: s.Counter("serve_leases_granted_total", "coordinator leases accepted into the queue"),
		cellsStolen:   s.Counter("serve_lease_cells_stolen_total", "lease cells reclaimed by the coordinator before running"),
		queueDepth:    s.Gauge("serve_queue_depth", "tasks waiting in the queue"),
		inFlight:      s.Gauge("serve_inflight_cells", "cells currently simulating"),
		workers:       s.Gauge("serve_workers", "worker pool size"),
		streamDropped: s.Counter("serve_stream_dropped_events_total", "SSE events dropped on slow subscribers"),

		queueWait:  s.Histogram("serve_queue_wait_us", "cell time from enqueue to execution start in microseconds"),
		engineRate: s.Histogram("serve_engine_cycles_per_sec", "simulated cycles per wall-clock second per engine run"),
	}
}

// Server is the simulation service: a worker pool draining a bounded
// queue of cells, backed by a content-addressed result cache, running
// every cell through an engine guard (the per-cell watchdog). Create
// with NewServer, serve via Handler, stop with Drain.
type Server struct {
	opts    Options
	queue   *taskQueue
	cache   *rescache.Cache
	guard   *resilience.EngineGuard
	jobs    *jobRegistry
	metrics *serverMetrics
	durable *Durable
	spans   *obs.SpanStore
	bus     *obs.Bus

	mu       sync.Mutex
	suites   []*suiteEntry
	suiteUse uint64
	flights  map[rescache.Key]*flight
	inFlight int
	draining bool

	wg sync.WaitGroup

	// Test hooks, nil in production. When set, every cell execution first
	// sends its cell key on cellStarted, then blocks until cellGate is
	// closed or receives — letting the drain test freeze a worker
	// mid-cell deterministically.
	cellStarted chan string
	cellGate    chan struct{}
}

// NewServer builds a Server and starts its workers.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		queue:   newTaskQueue(opts.QueueDepth),
		cache:   rescache.New(opts.CacheEntries),
		jobs:    newJobRegistry(),
		metrics: newServerMetrics(),
		flights: make(map[rescache.Key]*flight),
	}
	s.durable = NewDurable(s.metrics.set, "serve", opts.Store)
	s.spans = obs.NewSpanStore(obs.DefaultSpanCapacity)
	s.bus = obs.NewBus(s.metrics.streamDropped)
	s.guard = &resilience.EngineGuard{}
	s.metrics.workers.Set(int64(opts.Workers))
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Guard exposes the server's engine guard; its Stats count the cells
// simulated (the benchmark of record reads them).
func (s *Server) Guard() *resilience.EngineGuard { return s.guard }

// Metrics exposes the server's metric registry.
func (s *Server) Metrics() *obs.MetricSet { return s.metrics.set }

// CacheStats returns the result cache counters.
func (s *Server) CacheStats() rescache.Stats { return s.cache.Stats() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Handler returns the server's HTTP API: the public routes (handlers.go)
// over this server's queue and worker pool, plus the cluster-internal
// lease protocol (lease.go) — harmless without a coordinator.
func (s *Server) Handler() http.Handler {
	return NewHandler(s, s.bus, s.metrics.http, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /internal/v1/lease", s.handleLeaseGrant)
		mux.HandleFunc("GET /internal/v1/lease/{id}", s.handleLeaseStatus)
		mux.HandleFunc("POST /internal/v1/lease/{id}/steal", s.handleLeaseSteal)
	})
}

// Refusal implements Executor.
func (s *Server) Refusal() error {
	if s.Draining() {
		return errServerDraining
	}
	return nil
}

// Simulate runs one cell synchronously. The request still flows through
// the queue and worker pool — the same backpressure, drain and
// accounting path as sweeps — as a one-cell job Simulate waits on.
func (s *Server) Simulate(ctx context.Context, req *SimulateRequest, parent obs.SpanContext) (*SimulateResponse, obs.SpanContext, error) {
	cell := cellSpec{
		app:      req.App,
		infinite: req.Infinite,
		counters: req.Counters,
	}
	if req.Placement != nil {
		cell.explicitPlacement = req.Placement
	} else {
		cell.algorithm = req.Algorithm
	}
	if req.Config != nil {
		cfg, err := req.Config.ToSim()
		if err != nil {
			return nil, obs.SpanContext{}, badRequest(err)
		}
		cell.explicitConfig = &cfg
		cell.procs = cfg.Processors
	} else {
		cell.procs = req.Procs
	}

	j := newJob("", ResolveParams(req.Params), []cellSpec{cell})
	// The request span is the job's root; cell spans hang off it. It
	// ends with the job, which Simulate always waits for.
	j.span = s.spans.Start(parent, s.opts.ServiceName, "simulate "+cellLabel(cell))
	j.trace = j.span.Context()
	if err := s.enqueue(j); err != nil {
		return nil, j.trace, err
	}

	select {
	case <-j.done:
	case <-ctx.Done():
		// Client gone: cancel the cell (the guard polls the flag) and wait
		// for the worker so the job's accounting still closes.
		j.cancel.Store(true)
		<-j.done
		return nil, j.trace, ctx.Err()
	}

	if j.snapshot().Status == StatusRetriable {
		return nil, j.trace, &Error{Status: http.StatusServiceUnavailable, Retriable: true,
			Message: "server drained before the cell ran; retry against the restarted server"}
	}
	res := j.results[0]
	if res.err != nil {
		var be *sim.BudgetError
		if errors.As(res.err, &be) {
			return nil, j.trace, &Error{Status: http.StatusGatewayTimeout, Message: res.err.Error(), Retriable: true}
		}
		return nil, j.trace, &Error{Status: http.StatusUnprocessableEntity, Message: res.err.Error()}
	}
	return &SimulateResponse{
		Key:      res.key,
		Cached:   res.cached,
		Result:   res.res,
		Counters: res.counters,
		Trace:    j.trace.Trace,
	}, j.trace, nil
}

// LookupJob implements Executor.
func (s *Server) LookupJob(id string) (JobRef, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobRef{}, false
	}
	return JobRef{Status: j.snapshot, Done: j.done}, true
}

// Spans implements Executor.
func (s *Server) Spans(traceID string) []obs.Span { return s.spans.Trace(traceID) }

// WriteMetrics implements Executor: the cache's and the durable tier's
// own counters are mirrored in first.
func (s *Server) WriteMetrics(w io.Writer) error {
	cs := s.cache.Stats()
	s.metrics.cacheHits.Set(int64(cs.Hits))
	s.metrics.cacheMisses.Set(int64(cs.Misses))
	s.metrics.cacheEvicts.Set(int64(cs.Evictions))
	s.durable.SyncMetrics()
	_, err := s.metrics.set.WriteTo(w)
	return err
}

// Drain refuses new work, lets in-flight cells finish, marks queued
// cells' jobs retriable, and waits for the workers to exit. An accepted
// job is never lost: it ends done, failed, canceled — or retriable, and
// a retriable job's content-addressed ID resubmitted to a restarted
// server rebuilds the identical results.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()

	rest := s.queue.Close()
	// Collect drained cells per job, then finalize each job once. Only
	// cells still pending count — a cell stolen back by a coordinator
	// already left this job's accounting.
	drained := make(map[*job][]int)
	for _, t := range rest {
		drained[t.j] = append(drained[t.j], t.cell)
	}
	for j, cells := range drained {
		if n := j.markRetriable(cells, s.metrics.countOutcome); n > 0 {
			s.publishJob(j)
			s.opts.Log.Info("drain: job marked retriable", "job", j.id, "cells_not_run", n)
		}
	}
	s.metrics.queueDepth.Set(0)
	s.wg.Wait()
}

// suiteFor returns the (cached) suite for these params.
func (s *Server) suiteFor(p Params) *core.Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.suiteUse++
	for _, e := range s.suites {
		if e.params == p {
			e.used = s.suiteUse
			return e.suite
		}
	}
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: p.Scale, Seed: p.Seed}
	e := &suiteEntry{params: p, suite: core.NewSuite(opts), used: s.suiteUse}
	if len(s.suites) >= maxSuites {
		oldest := 0
		for i, se := range s.suites {
			if se.used < s.suites[oldest].used {
				oldest = i
			}
		}
		s.suites[oldest] = s.suites[len(s.suites)-1]
		s.suites = s.suites[:len(s.suites)-1]
	}
	s.suites = append(s.suites, e)
	return e.suite
}

// ResolveParams fills nil request params with the library defaults.
// Both daemons resolve through it, so coordinator and worker agree on
// cell identity.
func ResolveParams(p *Params) Params {
	if p != nil {
		return *p
	}
	d := workload.DefaultParams()
	return Params{Scale: d.Scale, Seed: d.Seed}
}

// errServerDraining is returned for work refused because of shutdown.
var errServerDraining = &Error{Status: http.StatusServiceUnavailable, Message: "server is draining", Retriable: true}

// enqueue pushes a job's cells onto the queue atomically (all or none).
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errServerDraining
	}
	s.mu.Unlock()

	now := time.Now()
	ts := make([]task, len(j.cells))
	for i := range j.cells {
		ts[i] = task{j: j, cell: i, enq: now}
	}
	if !s.queue.TryPushAll(ts) {
		s.metrics.rejectedFull.Inc()
		if s.Draining() {
			return errServerDraining
		}
		return errQueueFull
	}
	s.metrics.jobsAccepted.Inc()
	s.metrics.queueDepth.Set(int64(s.queue.Depth()))
	return nil
}

// SubmitSweep registers a sweep job by its content-addressed ID and
// enqueues its cells. An identical sweep already known (live or kept
// terminal) is returned as-is with Existing set — resubmission is a
// lookup, which is exactly what a drained client does after a restart.
func (s *Server) SubmitSweep(req *SweepRequest, parent obs.SpanContext) (*SweepAccepted, error) {
	params := ResolveParams(req.Params)
	j := newJob(SweepJobID(params, req), params, sweepCells(req))
	// Root span for the whole sweep, ended when the job reaches a
	// terminal state. If the sweep turns out to be a duplicate the fresh
	// span is simply never ended, so it is never recorded.
	j.span = s.spans.Start(parent, s.opts.ServiceName, "sweep")
	j.trace = j.span.Context()
	reg, existing := s.jobs.add(j)
	if existing {
		reg.mu.Lock()
		retriable := reg.status == StatusRetriable
		reg.mu.Unlock()
		if retriable {
			// A previously drained job is resubmittable: forget the stale
			// record and queue the fresh one.
			s.jobs.remove(reg.id)
			reg, existing = s.jobs.add(j)
		}
	}
	if !existing {
		if err := s.enqueue(j); err != nil {
			s.jobs.remove(j.id)
			return nil, err
		}
	}
	st := reg.snapshot()
	return &SweepAccepted{Job: reg.id, Status: st.Status, Cells: st.Cells, Existing: existing, Trace: st.Trace}, nil
}

// errQueueFull is the backpressure signal behind HTTP 429.
var errQueueFull = &Error{Status: http.StatusTooManyRequests, Message: "job queue is full", Retriable: true}

// worker drains the queue until it closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.metrics.queueDepth.Set(int64(s.queue.Depth()))
		s.runTask(t)
	}
}

// runTask executes one cell of one job and records the outcome; the last
// cell finalizes the job and its metrics. A cell stolen while it sat in
// the queue is skipped — its thief runs it elsewhere.
func (s *Server) runTask(t task) {
	if !t.j.begin(t.cell) {
		return
	}
	s.metrics.queueWait.Observe(time.Since(t.enq).Microseconds())
	s.spans.AddSpan(t.j.trace, s.opts.ServiceName, "queue wait", t.enq, time.Now())
	s.mu.Lock()
	s.inFlight++
	s.metrics.inFlight.Set(int64(s.inFlight))
	s.mu.Unlock()

	r := s.runCell(t.j, t.cell)

	s.mu.Lock()
	s.inFlight--
	s.metrics.inFlight.Set(int64(s.inFlight))
	s.mu.Unlock()

	last := t.j.finishCell(t.cell, r, s.metrics.countOutcome)
	s.publishCell(t.j, t.cell, r)
	if last {
		s.publishJob(t.j)
	}
}

// countOutcome counts a job's terminal status. Jobs call it as they turn
// terminal, before the status is stored, so /healthz and /metrics are
// never behind what a client can observe.
func (m *serverMetrics) countOutcome(status string) {
	switch status {
	case StatusDone:
		m.jobsCompleted.Inc()
	case StatusFailed:
		m.jobsFailed.Inc()
	case StatusCanceled:
		m.jobsCanceled.Inc()
	case StatusRetriable:
		m.jobsRetriable.Inc()
	}
}

// resolveCell turns a cellSpec into the concrete (trace, placement,
// config) triple, reusing the suite's derivations so the served cell is
// identical to the library cell.
func (s *Server) resolveCell(params Params, c cellSpec) (*trace.Trace, *placement.Placement, sim.Config, error) {
	suite := s.suiteFor(params)
	tr, err := suite.Trace(c.app)
	if err != nil {
		return nil, nil, sim.Config{}, err
	}
	var pl *placement.Placement
	if c.explicitPlacement != nil {
		pl = &placement.Placement{
			Algorithm: c.explicitPlacement.Algorithm,
			Clusters:  c.explicitPlacement.Clusters,
		}
	} else if spec, ok, perr := advise.ParseOnlineAlgorithm(c.algorithm); ok || perr != nil {
		if perr != nil {
			return nil, nil, sim.Config{}, perr
		}
		// Online cell: place with the spec's static seed, then rename the
		// placement to the canonical ONLINE name so every cache, store and
		// shard key carries the full online configuration. Copy before
		// renaming — the suite shares placements across cells.
		seed, err := suite.Place(c.app, spec.SeedAlgorithm(), c.procs)
		if err != nil {
			return nil, nil, sim.Config{}, err
		}
		onl := *seed
		onl.Algorithm = spec.String()
		pl = &onl
	} else {
		pl, err = suite.Place(c.app, c.algorithm, c.procs)
		if err != nil {
			return nil, nil, sim.Config{}, err
		}
	}
	var cfg sim.Config
	if c.explicitConfig != nil {
		cfg = *c.explicitConfig
	} else {
		cfg, err = suite.Config(c.app, c.procs, c.infinite)
		if err != nil {
			return nil, nil, sim.Config{}, err
		}
	}
	return tr, pl, cfg, nil
}

// runCell executes one cell: cache lookup, single-flight dedup, guarded
// simulation, cache fill. The cell and its cache lookup and engine run
// each become spans on the job's trace.
func (s *Server) runCell(j *job, cell int) cellResultInternal {
	c := j.cells[cell]
	cellSpan := s.spans.Start(j.trace, s.opts.ServiceName, "cell "+cellLabel(c))
	defer cellSpan.End()
	sctx := cellSpan.Context()

	if s.opts.BeforeCell != nil {
		s.opts.BeforeCell()
	}
	tr, pl, cfg, err := s.resolveCell(j.params, c)
	if err != nil {
		return cellResultInternal{err: err}
	}
	key := rescache.KeyOf(j.params.Scale, j.params.Seed, c.app, core.PlacementKey(pl), cfg)
	keyHex := key.String()

	if s.cellStarted != nil {
		s.cellStarted <- keyHex
		<-s.cellGate
	}

	// The cache counts hits/misses/evictions authoritatively; /metrics
	// mirrors its counters at scrape time.
	lookupStart := time.Now()
	res := s.cache.Get(key)
	s.spans.AddSpan(sctx, s.opts.ServiceName, "cache lookup", lookupStart, time.Now())
	if res != nil {
		cellSpan.SetNote("cache hit")
		return cellResultInternal{key: keyHex, cached: true, res: res}
	}

	// Single-flight: concurrent identical misses share one simulation.
	// A flight leaves s.flights only after its result is in the cache
	// (landFlight), so a miss that finds no flight re-checks the cache
	// under the same lock; Peek counts nothing, as Get already counted
	// this request's miss.
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.metrics.sfShared.Inc()
		waitStart := time.Now()
		<-f.done
		s.spans.AddSpan(sctx, s.opts.ServiceName, "singleflight wait", waitStart, time.Now())
		if f.err != nil {
			return cellResultInternal{key: keyHex, err: f.err}
		}
		return cellResultInternal{key: keyHex, res: f.res}
	}
	if res := s.cache.Peek(key); res != nil {
		s.mu.Unlock()
		cellSpan.SetNote("cache hit")
		return cellResultInternal{key: keyHex, cached: true, res: res}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	// Durable tier: a store hit is served (and promoted into the memory
	// cache) without simulating — this is how a restarted server warm
	// starts from disk.
	if res := s.storeGet(key, sctx); res != nil {
		s.landFlight(key, f, res, nil)
		cellSpan.SetNote("store hit")
		return cellResultInternal{key: keyHex, cached: true, res: res}
	}

	// The engine run under the server's guard.
	engineSpan := s.spans.Start(sctx, s.opts.ServiceName, "engine guarded")
	t0 := time.Now()
	res, counters, err := s.simulate(j, c, cell, tr, pl, cfg)
	if err == nil && res != nil {
		if sec := time.Since(t0).Seconds(); sec > 0 {
			s.metrics.engineRate.Observe(int64(float64(res.ExecTime) / sec))
		}
	}
	engineSpan.End()

	s.landFlight(key, f, res, err)
	if err != nil {
		s.metrics.simFailures.Inc()
		return cellResultInternal{key: keyHex, err: err}
	}
	s.storePut(key, res)
	return cellResultInternal{key: keyHex, res: res, counters: counters}
}

// landFlight publishes a flight's outcome to its waiters and releases
// it. A result enters the cache before the flight leaves s.flights, so
// an identical miss always finds one or the other and never simulates
// the cell a second time.
func (s *Server) landFlight(key rescache.Key, f *flight, res *sim.Result, err error) {
	if err == nil {
		s.cache.Put(key, res)
	}
	f.res, f.err = res, err
	close(f.done)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
}

// simulate runs the cell on the fast engine under the job's guard. When
// the job has a live SSE subscriber, a Sampler rides along and its
// windows are published as "sample" events after the run (zero cost for
// unwatched jobs: the probe is nil and the engine skips every hook).
func (s *Server) simulate(j *job, c cellSpec, cell int, tr *trace.Trace, pl *placement.Placement, cfg sim.Config) (*sim.Result, *obs.Counter, error) {
	guard := sim.Guard{MaxSteps: s.opts.MaxSteps, Cancel: &j.cancel}
	var timer *time.Timer
	if s.opts.RequestTimeout > 0 {
		timer = time.AfterFunc(s.opts.RequestTimeout, func() { j.cancel.Store(true) })
	}
	var probe obs.Probe
	var counters *obs.Counter
	if c.counters {
		counters = &obs.Counter{}
		probe = counters
	}
	var sampler *obs.Sampler
	if s.bus.Subscribers(JobTopic(j.id)) > 0 {
		sampler = obs.NewSampler(sampleWindow)
		probe = obs.Multi(probe, sampler)
	}

	// An ONLINE/… placement name carries the cell's online adaptive
	// configuration; a zero OnlineOptions makes the online entry points
	// delegate to the exact static paths, so one switch serves both.
	var online sim.OnlineOptions
	if spec, ok, perr := advise.ParseOnlineAlgorithm(pl.Algorithm); perr != nil {
		return nil, nil, perr
	} else if ok {
		var oerr error
		if online, oerr = spec.Options(); oerr != nil {
			return nil, nil, oerr
		}
	}

	s.metrics.simRuns.Inc()
	res, err := s.guard.RunOnline(tr, pl, cfg, online, probe, guard)
	if timer != nil {
		timer.Stop()
	}
	if sampler != nil && err == nil {
		for i, w := range sampler.Samples() {
			s.bus.Publish(JobTopic(j.id), "sample", SampleEvent{
				Job: j.id, Cell: cell, Window: uint64(i), Sample: w,
			})
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, counters, nil
}

// Health assembles the /healthz view.
func (s *Server) Health() HealthResponse {
	s.mu.Lock()
	draining := s.draining
	inFlight := s.inFlight
	s.mu.Unlock()

	cs := s.cache.Stats()
	h := HealthResponse{
		Status:        "ok",
		Workers:       s.opts.Workers,
		QueueDepth:    s.queue.Depth(),
		QueueCapacity: s.opts.QueueDepth,
		InFlight:      inFlight,
		Cache: CacheHealth{
			Entries: cs.Entries, Capacity: cs.Capacity,
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			HitRate: cs.HitRate(),
		},
		Jobs: JobsHealth{
			Accepted:  s.metrics.jobsAccepted.Value(),
			Completed: s.metrics.jobsCompleted.Value(),
			Failed:    s.metrics.jobsFailed.Value(),
			Retriable: s.metrics.jobsRetriable.Value(),
			Canceled:  s.metrics.jobsCanceled.Value(),
		},
	}
	h.Store = s.durable.Health()
	if draining {
		h.Status = "draining"
	}
	return h
}

// SweepJobID derives the content-addressed ID of a sweep: the same sweep
// (params, dimensions) always maps to the same ID, on this server, a
// restarted one, or a cluster coordinator — a drained client simply
// resubmits, and coordinator and worker agree on job identity.
func SweepJobID(params Params, req *SweepRequest) string {
	parts := make([]string, 0, 5+len(req.Apps)+len(req.Algorithms)+len(req.Procs))
	parts = append(parts,
		fmt.Sprintf("scale=%g", params.Scale),
		fmt.Sprintf("seed=%d", params.Seed),
		fmt.Sprintf("infinite=%t", req.Infinite),
		"engine="+rescache.EngineLabel,
	)
	parts = append(parts, "apps")
	parts = append(parts, req.Apps...)
	parts = append(parts, "algs")
	parts = append(parts, req.Algorithms...)
	parts = append(parts, "procs")
	for _, p := range req.Procs {
		parts = append(parts, fmt.Sprintf("%d", p))
	}
	sum := rescache.SumStrings("mtserve-sweep-v1", parts...)
	return "sw-" + sum.String()[:16]
}

// sweepCells expands a sweep request into its deterministic cell order
// (apps outermost, procs innermost).
func sweepCells(req *SweepRequest) []cellSpec {
	cells := make([]cellSpec, 0, req.Cells())
	for _, app := range req.Apps {
		for _, alg := range req.Algorithms {
			for _, p := range req.Procs {
				cells = append(cells, cellSpec{
					app: app, algorithm: alg, procs: p,
					infinite: req.Infinite,
				})
			}
		}
	}
	return cells
}
