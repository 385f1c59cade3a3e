package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Handler returns the server's HTTP API. Routing uses Go 1.22 method
// patterns; every response body is JSON.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/advise", s.handleAdvise)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/placements", s.handlePlacements)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Cluster-internal lease protocol (see lease.go); a bare worker
	// serves these too — they are harmless without a coordinator.
	mux.HandleFunc("POST /internal/v1/lease", s.handleLeaseGrant)
	mux.HandleFunc("GET /internal/v1/lease/{id}", s.handleLeaseStatus)
	mux.HandleFunc("POST /internal/v1/lease/{id}/steal", s.handleLeaseSteal)
	return s.instrument(mux)
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer: the SSE stream handler needs
// http.Flusher to survive the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController lookups through the wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument counts requests and response classes around the mux, and
// feeds the request-latency histogram. SSE streams are excluded from
// the latency histogram — their "latency" is the client's watch
// duration, which would drown the real request distribution.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		if !strings.HasSuffix(r.URL.Path, "/events") {
			s.metrics.reqLatency.ObserveSince(start)
		}
		switch {
		case rec.status >= 500:
			s.metrics.resp5xx.Inc()
		case rec.status >= 400:
			s.metrics.resp4xx.Inc()
		default:
			s.metrics.resp2xx.Inc()
		}
	})
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, msg string, retriable bool) {
	writeJSON(w, status, ErrorResponse{Error: msg, Retriable: retriable})
}

// handleSimulate runs one cell synchronously. The request still flows
// through the queue and worker pool — the same backpressure, drain and
// accounting path as sweeps — as a one-cell job the handler waits on.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errServerDraining.Error(), true)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeSimulateRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}

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
			writeError(w, http.StatusBadRequest, err.Error(), false)
			return
		}
		cell.explicitConfig = &cfg
		cell.procs = cfg.Processors
	} else {
		cell.procs = req.Procs
	}

	j := newJob("", resolveParams(req.Params), []cellSpec{cell})
	if s.spans != nil {
		// The request span is the job's root; cell spans hang off it. It
		// ends with the job (finish()), which this handler always waits for.
		j.span = s.spans.Start(s.traceFromRequest(r), s.opts.ServiceName, "simulate "+cellLabel(cell))
		j.trace = j.span.Context()
		w.Header().Set(obs.TraceHeader, j.trace.HeaderValue())
	}
	if err := s.enqueue(j); err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error(), true)
		case errors.Is(err, errServerDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error(), true)
		default:
			writeError(w, http.StatusInternalServerError, err.Error(), false)
		}
		return
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone: cancel the cell (the guard polls the flag) and wait
		// for the worker so the job's accounting still closes.
		j.cancel.Store(true)
		<-j.done
		return
	}

	st := j.snapshot()
	if st.Status == StatusRetriable {
		writeError(w, http.StatusServiceUnavailable, "server drained before the cell ran; retry against the restarted server", true)
		return
	}
	res := j.results[0]
	if res.err != nil {
		var be *sim.BudgetError
		if errors.As(res.err, &be) {
			writeError(w, http.StatusGatewayTimeout, res.err.Error(), true)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, res.err.Error(), false)
		return
	}
	writeJSON(w, http.StatusOK, SimulateResponse{
		Key:      res.key,
		Cached:   res.cached,
		Result:   res.res,
		Counters: res.counters,
		Trace:    j.trace.Trace,
	})
}

// handleSweep accepts a cell cross-product as an asynchronous job.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errServerDraining.Error(), true)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeSweepRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	params := resolveParams(req.Params)
	j := newJob(SweepJobID(params, req), params, sweepCells(req))
	j.webhookURL = req.WebhookURL
	if s.spans != nil {
		// Root span for the whole sweep, ended when the job reaches a
		// terminal state. If the sweep turns out to be a duplicate the
		// fresh span is simply never ended, so it is never recorded.
		j.span = s.spans.Start(s.traceFromRequest(r), s.opts.ServiceName, "sweep")
		j.trace = j.span.Context()
	}

	reg, existing, err := s.submitSweep(j)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error(), true)
		case errors.Is(err, errServerDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error(), true)
		default:
			writeError(w, http.StatusInternalServerError, err.Error(), false)
		}
		return
	}
	st := reg.snapshot()
	writeJSON(w, http.StatusAccepted, SweepAccepted{
		Job:      reg.id,
		Status:   st.Status,
		Cells:    st.Cells,
		Existing: existing,
		Trace:    st.Trace,
	})
}

// handleJob reports a job's status (and results once done).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id, false)
		return
	}
	st := j.snapshot()
	if st.Status == StatusRetriable {
		// The job was drained; tell the poller to resubmit the identical
		// sweep (same content-addressed ID) after the restart.
		writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handlePlacements returns the simulatable catalog.
func (s *Server) handlePlacements(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, PlacementsResponse{
		Apps:       workload.Names(),
		Algorithms: placement.Names(),
	})
}

// handleHealth reports liveness and degradation; draining answers 503 so
// load balancers stop routing to a terminating instance.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncCacheCounters()
	s.syncDurableCounters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = s.metrics.set.WriteTo(w)
}

// syncCacheCounters mirrors the cache's own counters into /metrics (the
// cache counts authoritatively; metrics are a projection).
func (s *Server) syncCacheCounters() {
	cs := s.cache.Stats()
	s.metrics.cacheHits.Set(int64(cs.Hits))
	s.metrics.cacheMisses.Set(int64(cs.Misses))
	s.metrics.cacheEvicts.Set(int64(cs.Evictions))
}
