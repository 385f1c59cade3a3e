package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/workload"
)

// The public API, written once and served by both daemons: a worker
// (*Server, its own queue and worker pool) and the cluster coordinator
// (rendezvous proxy and per-cell sweep dispatch). See DESIGN.md §10.
//
//	POST /v1/simulate         one cell, synchronous
//	POST /v1/sweep            a cell cross-product, asynchronous (202 + job ID)
//	POST /v1/advise           recommend a placement from measured sharing
//	GET  /v1/jobs/{id}        poll a sweep job's status and results
//	GET  /v1/jobs/{id}/events SSE stream of job/cell/sample events
//	GET  /v1/trace/{id}       Perfetto trace-event JSON (?format=spans raw)
//	GET  /v1/placements       catalog of apps and placement algorithms
//	GET  /healthz             liveness, queue and job accounting
//	GET  /metrics             Prometheus text exposition
//
// The handlers own everything the daemons share: body limits, strict
// decoding, drain refusal (always before decoding), error mapping, the
// SSE loop, trace rendering and request instrumentation. An Executor
// owns only what differs between them.

// Executor runs the public API's requests for one daemon. Failures that
// reach the client are *Error values, which carry the reply's status
// and retriable flag; any other error answers 500.
type Executor interface {
	// Refusal returns the error new work is refused with while the
	// daemon drains, and nil otherwise.
	Refusal() error
	// Simulate runs one cell. parent is the caller's trace context; the
	// returned context is the request span's, echoed in the Mtsim-Trace
	// reply header. ctx ends when the client goes away.
	Simulate(ctx context.Context, req *SimulateRequest, parent obs.SpanContext) (*SimulateResponse, obs.SpanContext, error)
	// Advise answers one placement-advisor request, traced like Simulate.
	Advise(req *AdviseRequest, parent obs.SpanContext) (*AdviseResponse, obs.SpanContext, error)
	// SubmitSweep accepts a sweep as an asynchronous job.
	SubmitSweep(req *SweepRequest, parent obs.SpanContext) (*SweepAccepted, error)
	// LookupJob finds a job by ID.
	LookupJob(id string) (JobRef, bool)
	// Spans gathers one trace's spans in SortSpans order.
	Spans(traceID string) []obs.Span
	// Health builds the /healthz view.
	Health() HealthResponse
	// WriteMetrics renders the Prometheus text exposition.
	WriteMetrics(w io.Writer) error
}

// JobRef is a job found by LookupJob.
type JobRef struct {
	// Status snapshots the job's wire status.
	Status func() JobStatus
	// Done is closed once the job is terminal.
	Done <-chan struct{}
}

// Error is a request failure together with its reply.
type Error struct {
	Status  int
	Message string
	// Retriable hints that the identical request may succeed later.
	Retriable bool
}

func (e *Error) Error() string { return e.Message }

// badRequest wraps a decode or validation failure.
func badRequest(err error) *Error {
	return &Error{Status: http.StatusBadRequest, Message: err.Error()}
}

// RequestMetrics instruments the handler set: requests, response
// classes and latency, registered under a daemon's metric prefix.
type RequestMetrics struct {
	requests *obs.Metric
	resp2xx  *obs.Metric
	resp4xx  *obs.Metric
	resp5xx  *obs.Metric
	latency  *obs.Histogram
}

// NewRequestMetrics registers the request series as <prefix>_http_* and
// <prefix>_request_latency_us.
func NewRequestMetrics(set *obs.MetricSet, prefix string) *RequestMetrics {
	return &RequestMetrics{
		requests: set.Counter(prefix+"_http_requests_total", "HTTP requests received"),
		resp2xx:  set.Counter(prefix+"_http_responses_2xx_total", "HTTP responses with 2xx status"),
		resp4xx:  set.Counter(prefix+"_http_responses_4xx_total", "HTTP responses with 4xx status"),
		resp5xx:  set.Counter(prefix+"_http_responses_5xx_total", "HTTP responses with 5xx status"),
		latency:  set.Histogram(prefix+"_request_latency_us", "HTTP request latency in microseconds"),
	}
}

// api is the public route set over one Executor.
type api struct {
	ex      Executor
	bus     *obs.Bus // job progress events
	metrics *RequestMetrics
}

// NewHandler serves the public API over ex, plus the daemon's private
// routes (registered by private on the same mux; nil for none), all
// behind request instrumentation. Routing uses Go 1.22 method patterns.
func NewHandler(ex Executor, bus *obs.Bus, m *RequestMetrics, private func(mux *http.ServeMux)) http.Handler {
	a := &api{ex: ex, bus: bus, metrics: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", a.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", a.handleSweep)
	mux.HandleFunc("POST /v1/advise", a.handleAdvise)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.handleJobEvents)
	mux.HandleFunc("GET /v1/trace/{id}", a.handleTrace)
	mux.HandleFunc("GET /v1/placements", handlePlacements)
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	if private != nil {
		private(mux)
	}
	return a.instrument(mux)
}

// statusRecorder captures the response status for metrics.
//
//mtlint:guard external -- one per request: net/http runs the request's handler chain on one goroutine
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
func (a *api) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.metrics.requests.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		if !strings.HasSuffix(r.URL.Path, "/events") {
			a.metrics.latency.ObserveSince(start)
		}
		switch {
		case rec.status >= 500:
			a.metrics.resp5xx.Inc()
		case rec.status >= 400:
			a.metrics.resp4xx.Inc()
		default:
			a.metrics.resp2xx.Inc()
		}
	})
}

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes err as an ErrorResponse: an *Error with its own
// status (a retriable 429 adds Retry-After), anything else as 500.
func WriteError(w http.ResponseWriter, err error) {
	var e *Error
	if !errors.As(err, &e) {
		e = &Error{Status: http.StatusInternalServerError, Message: err.Error()}
	}
	if e.Status == http.StatusTooManyRequests && e.Retriable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, e.Status, ErrorResponse{Error: e.Message, Retriable: e.Retriable})
}

// admit runs what every POST route does before its executor sees the
// request: drain refusal first, then the body limit and strict decoding.
func admit[T any](ex Executor, w http.ResponseWriter, r *http.Request, decode func(io.Reader) (*T, error)) (*T, error) {
	if err := ex.Refusal(); err != nil {
		return nil, err
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := decode(r.Body)
	if err != nil {
		return nil, badRequest(err)
	}
	return req, nil
}

// traceFromRequest extracts the caller's trace context from the
// Mtsim-Trace header, or mints a fresh root when absent or malformed.
func traceFromRequest(r *http.Request) obs.SpanContext {
	if ctx, ok := obs.ParseTrace(r.Header.Get(obs.TraceHeader)); ok {
		return ctx
	}
	return obs.NewTrace()
}

// echoTrace sets the Mtsim-Trace reply header to the request span.
func echoTrace(w http.ResponseWriter, sc obs.SpanContext) {
	if sc.Valid() {
		w.Header().Set(obs.TraceHeader, sc.HeaderValue())
	}
}

// handleSimulate runs one cell synchronously.
func (a *api) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := admit(a.ex, w, r, DecodeSimulateRequest)
	if err != nil {
		WriteError(w, err)
		return
	}
	resp, sc, err := a.ex.Simulate(r.Context(), req, traceFromRequest(r))
	echoTrace(w, sc)
	if err != nil {
		if r.Context().Err() == nil { // nobody to answer once the client is gone
			WriteError(w, err)
		}
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleAdvise answers one placement-advisor request synchronously.
func (a *api) handleAdvise(w http.ResponseWriter, r *http.Request) {
	req, err := admit(a.ex, w, r, DecodeAdviseRequest)
	if err != nil {
		WriteError(w, err)
		return
	}
	resp, sc, err := a.ex.Advise(req, traceFromRequest(r))
	echoTrace(w, sc)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleSweep accepts a cell cross-product as an asynchronous job.
func (a *api) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := admit(a.ex, w, r, DecodeSweepRequest)
	if err != nil {
		WriteError(w, err)
		return
	}
	acc, err := a.ex.SubmitSweep(req, traceFromRequest(r))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, acc)
}

// unknownJob is the 404 for a job ID neither registry knows.
func unknownJob(id string) *Error {
	return &Error{Status: http.StatusNotFound, Message: "unknown job " + id}
}

// handleJob reports a job's status (and results once done). A drained
// job answers 503 with its status body: the poller resubmits the
// identical sweep (same content-addressed ID) after the restart.
func (a *api) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.ex.LookupJob(id)
	if !ok {
		WriteError(w, unknownJob(id))
		return
	}
	st := job.Status()
	if st.Status == StatusRetriable {
		WriteJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handlePlacements returns the simulatable catalog (compiled in, so
// identical on every node).
func handlePlacements(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, PlacementsResponse{
		Apps:       workload.Names(),
		Algorithms: placement.Names(),
	})
}

// handleHealth reports liveness; draining answers 503 so load balancers
// stop routing to a terminating instance.
func (a *api) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := a.ex.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}

// handleMetrics renders the Prometheus text exposition.
func (a *api) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = a.ex.WriteMetrics(w) // a failed write means the scraper went away
}
