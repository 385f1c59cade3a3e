package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/workload"
)

// Handler returns the coordinator's HTTP API. The public surface is
// mtserve's, endpoint for endpoint — a client pointed at a coordinator
// cannot tell the difference except for Role in /healthz — plus the
// cluster-internal registration endpoints under /cluster/v1.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", c.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /v1/advise", c.handleAdvise)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJobEvents)
	mux.HandleFunc("GET /v1/trace/{id}", c.handleTrace)
	mux.HandleFunc("GET /v1/placements", c.handlePlacements)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	return c.instrument(mux)
}

// instrument feeds the request-latency histogram around the mux. SSE
// streams are excluded — their duration is the client's watch time, not
// a request latency.
func (c *Coordinator) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if !strings.HasSuffix(r.URL.Path, "/events") {
			c.metrics.reqLatency.ObserveSince(start)
		}
	})
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a serve.ErrorResponse (same wire shape as a worker).
func writeError(w http.ResponseWriter, status int, msg string, retriable bool) {
	writeJSON(w, status, serve.ErrorResponse{Error: msg, Retriable: retriable})
}

// handleSweep accepts a sweep for distributed execution.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes)
	req, err := serve.DecodeSweepRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	st, existing, err := c.SubmitSweepTraced(req, c.traceFromRequest(r))
	if err != nil {
		// Both refusal modes — draining and an empty cluster — are
		// retriable: the identical sweep succeeds once workers are back.
		writeError(w, http.StatusServiceUnavailable, err.Error(), true)
		return
	}
	writeJSON(w, http.StatusAccepted, serve.SweepAccepted{
		Job:      st.Job,
		Status:   st.Status,
		Cells:    st.Cells,
		Existing: existing,
		Trace:    st.Trace,
	})
}

// handleJob reports a job's status, results attached once done.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id, false)
		return
	}
	if st.Status == serve.StatusRetriable {
		// Same contract as a drained worker: 503 with the status body tells
		// the poller to resubmit the identical content-addressed sweep.
		writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSimulate proxies a single cell to the rendezvous-preferred worker
// (so repeated identical cells hit that worker's result cache), failing
// over down the preference order when workers are dead.
func (c *Coordinator) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error(), true)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes)
	req, err := serve.DecodeSimulateRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}

	// Request-level cell identity, mirroring the sweep shard key.
	alg := req.Algorithm
	if req.Placement != nil {
		alg = req.Placement.Algorithm
	}
	procs := req.Procs
	if req.Config != nil && req.Config.Processors > 0 {
		procs = req.Config.Processors
	}
	params := resolveParams(req.Params)
	key := CellShardKey(params, req.App, alg, procs, req.Infinite)

	now := time.Now()
	live := c.liveWorkerIDs(now)
	if len(live) == 0 {
		writeError(w, http.StatusServiceUnavailable, errNoWorkers.Error(), true)
		return
	}
	sort.Slice(live, func(i, k int) bool {
		si, sk := rendezvousScore(key, live[i]), rendezvousScore(key, live[k])
		if si != sk {
			return si > sk
		}
		return live[i] < live[k]
	})
	// Wrap the proxied call in a coordinator span so the worker's spans
	// (propagated via the forwarded header) nest under it.
	var proxySpan *obs.ActiveSpan
	trace := ""
	if c.spans != nil {
		proxySpan = c.spans.Start(c.traceFromRequest(r), coordService, "proxy simulate")
		defer proxySpan.End()
		trace = proxySpan.Context().HeaderValue()
		w.Header().Set(obs.TraceHeader, trace)
	}
	for _, wid := range live {
		wk := c.workerByID(wid)
		if wk == nil {
			continue
		}
		resp, err := wk.client().SimulateTrace(req, trace)
		if err == nil {
			proxySpan.SetNote("worker " + wid)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		var ae *client.APIError
		if errors.As(err, &ae) {
			// The worker answered; mirror its verdict to the caller.
			writeError(w, ae.Status, ae.Message, ae.Retriable)
			return
		}
		c.markDead(wk, err)
	}
	writeError(w, http.StatusServiceUnavailable, "every candidate worker failed", true)
}

// handleAdvise proxies an advisor request to the rendezvous-preferred
// worker — keyed by the request's sharing source, so repeated advice on
// the same catalog app lands on the worker whose suite already memoized
// that app's measurement — failing over like handleSimulate.
func (c *Coordinator) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error(), true)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes)
	req, err := serve.DecodeAdviseRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}

	params := resolveParams(req.Params)
	key := CellShardKey(params, req.App, "ADVISE", req.Procs, false)

	now := time.Now()
	live := c.liveWorkerIDs(now)
	if len(live) == 0 {
		writeError(w, http.StatusServiceUnavailable, errNoWorkers.Error(), true)
		return
	}
	sort.Slice(live, func(i, k int) bool {
		si, sk := rendezvousScore(key, live[i]), rendezvousScore(key, live[k])
		if si != sk {
			return si > sk
		}
		return live[i] < live[k]
	})
	var proxySpan *obs.ActiveSpan
	trace := ""
	if c.spans != nil {
		proxySpan = c.spans.Start(c.traceFromRequest(r), coordService, "proxy advise")
		defer proxySpan.End()
		trace = proxySpan.Context().HeaderValue()
		w.Header().Set(obs.TraceHeader, trace)
	}
	for _, wid := range live {
		wk := c.workerByID(wid)
		if wk == nil {
			continue
		}
		resp, err := wk.client().AdviseTrace(req, trace)
		if err == nil {
			proxySpan.SetNote("worker " + wid)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		var ae *client.APIError
		if errors.As(err, &ae) {
			writeError(w, ae.Status, ae.Message, ae.Retriable)
			return
		}
		c.markDead(wk, err)
	}
	writeError(w, http.StatusServiceUnavailable, "every candidate worker failed", true)
}

// handlePlacements returns the simulatable catalog (identical on every
// node — the catalog is compiled in, not configured).
func (c *Coordinator) handlePlacements(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, serve.PlacementsResponse{
		Apps:       workload.Names(),
		Algorithms: placement.Names(),
	})
}

// handleHealth reports coordinator liveness; draining answers 503.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := c.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Health builds the coordinator's health view in mtserve's wire shape:
// Workers is live cluster members, QueueDepth is cells awaiting
// completion, and the jobs block balances exactly like a worker's.
func (c *Coordinator) Health() serve.HealthResponse {
	h := serve.HealthResponse{
		Status:     "ok",
		Role:       "coordinator",
		Workers:    len(c.liveWorkerIDs(time.Now())),
		QueueDepth: int(c.metrics.pendingCells.Value()),
		Jobs: serve.JobsHealth{
			Accepted:  c.metrics.jobsAccepted.Value(),
			Completed: c.metrics.jobsCompleted.Value(),
			Failed:    c.metrics.jobsFailed.Value(),
			Retriable: c.metrics.jobsRetriable.Value(),
		},
	}
	if c.opts.Store != nil {
		ss := c.opts.Store.Stats()
		h.Store = &serve.StoreHealth{
			Entries:        ss.Entries,
			SealedSegments: ss.SealedSegments,
			Hits:           ss.Hits,
			Misses:         ss.Misses,
			Puts:           ss.Puts,
			Quarantined:    ss.Quarantined,
			HitRate:        ss.HitRate(),
		}
	}
	if c.opts.Webhooks != nil {
		ws := c.opts.Webhooks.Stats()
		h.Webhooks = &serve.WebhookHealth{
			Pending:   ws.Pending,
			Delivered: ws.Delivered,
			Failed:    ws.Failed,
			Retries:   ws.Retries,
		}
	}
	if c.Draining() {
		h.Status = "draining"
	}
	return h
}

// handleMetrics renders the Prometheus text exposition.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.syncDurableCounters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = c.metrics.set.WriteTo(w)
}

// handleRegister adds or refreshes a worker.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error(), true)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeRegisterRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	live, err := c.register(req.Worker, req.URL, time.Now())
	if err != nil {
		writeError(w, http.StatusTooManyRequests, err.Error(), false)
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{Worker: req.Worker, Workers: live})
}

// handleHeartbeat refreshes a worker's liveness. Unknown workers get 404
// so their agent re-registers (this is how workers rejoin a restarted
// coordinator).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeHeartbeatRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	if err := c.heartbeat(req.Worker, time.Now()); err != nil {
		writeError(w, http.StatusNotFound, err.Error(), false)
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Worker: req.Worker})
}
