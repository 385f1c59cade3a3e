package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
)

// The coordinator is a serve.Executor: mtserve's public handler set
// (serve.NewHandler) runs over it unchanged, so a client pointed at a
// coordinator cannot tell the difference except for Role in /healthz.
// Simulate and advise are proxied to the rendezvous-preferred worker,
// sweeps run one proxied simulate per cell (sched.go), and the trace
// endpoint is the cluster-wide merge point: Spans joins the
// coordinator's own spans with every live worker's, which is how a whole
// sweep — coordinator dispatch plus each worker's queueing and engine
// runs — lands on a single Perfetto timeline.

// coordService is the coordinator's service label in spans.
const coordService = "mtcoord"

// Refusals, typed with their replies. All are retriable: the identical
// request succeeds once the coordinator restarts or workers are back.
var (
	errDraining  = &serve.Error{Status: http.StatusServiceUnavailable, Message: "coordinator is draining", Retriable: true}
	errNoWorkers = &serve.Error{Status: http.StatusServiceUnavailable, Message: "no live workers registered", Retriable: true}
	errAllFailed = &serve.Error{Status: http.StatusServiceUnavailable, Message: "every candidate worker failed", Retriable: true}
)

// Handler returns the coordinator's HTTP API: the public routes plus the
// cluster-internal membership routes under /cluster/v1.
func (c *Coordinator) Handler() http.Handler {
	return serve.NewHandler(c, c.bus, c.metrics.http, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
		mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	})
}

// Refusal implements serve.Executor.
func (c *Coordinator) Refusal() error {
	if c.Draining() {
		return errDraining
	}
	return nil
}

// Simulate proxies a single cell to the rendezvous-preferred worker, so
// repeated identical cells hit that worker's result cache.
func (c *Coordinator) Simulate(_ context.Context, req *serve.SimulateRequest, parent obs.SpanContext) (*serve.SimulateResponse, obs.SpanContext, error) {
	var resp *serve.SimulateResponse
	sc, err := c.proxy(shardOf(req), parent, "proxy simulate", func(ctx context.Context, cl *client.Client, trace string) (err error) {
		resp, err = cl.SimulateTrace(ctx, req, trace)
		return err
	})
	return resp, sc, err
}

// Advise proxies an advisor request keyed by its sharing source, so
// repeated advice on the same catalog app lands on the worker whose
// suite already memoized that app's measurement.
func (c *Coordinator) Advise(req *serve.AdviseRequest, parent obs.SpanContext) (*serve.AdviseResponse, obs.SpanContext, error) {
	key := CellShardKey(serve.ResolveParams(req.Params), req.App, "ADVISE", req.Procs, false)
	var resp *serve.AdviseResponse
	sc, err := c.proxy(key, parent, "proxy advise", func(ctx context.Context, cl *client.Client, trace string) (err error) {
		resp, err = cl.AdviseTrace(ctx, req, trace)
		return err
	})
	return resp, sc, err
}

// proxy sends one request down the live workers' rendezvous preference
// order for key, inside a coordinator span (name) that the worker's
// spans nest under via the forwarded trace header. A worker's answer —
// a reply or an API error — is final; a transport failure marks the
// worker dead and fails over to the next candidate. Each call runs
// under the worker's context, so the worker's death or drain cancels it.
func (c *Coordinator) proxy(key rescache.Key, parent obs.SpanContext, name string, call func(ctx context.Context, cl *client.Client, trace string) error) (obs.SpanContext, error) {
	cands := c.candidates(key)
	if len(cands) == 0 {
		return obs.SpanContext{}, errNoWorkers
	}
	span := c.spans.Start(parent, coordService, name)
	defer span.End()
	trace := span.Context().HeaderValue()
	for _, wk := range cands {
		cl, ctx := wk.client()
		err := call(ctx, cl, trace)
		if err == nil {
			span.SetNote("worker " + wk.id)
			return span.Context(), nil
		}
		var ae *client.APIError
		if errors.As(err, &ae) {
			// The worker answered; mirror its verdict to the caller.
			return span.Context(), &serve.Error{Status: ae.Status, Message: ae.Message, Retriable: ae.Retriable}
		}
		if ctx.Err() == nil {
			c.markDead(wk, err)
		}
	}
	return span.Context(), errAllFailed
}

// LookupJob implements serve.Executor. A sweep this coordinator no
// longer holds in memory — it restarted, or evicted the finished job —
// but whose job record is in the store answers "retriable"; the
// client's resubmission restores the stored cells.
func (c *Coordinator) LookupJob(id string) (*serve.Job, bool) {
	if j, ok := c.jobs.Get(id); ok || !c.hasJobRecord(id) {
		return j, ok
	}
	return c.jobs.AddRetriable(id, c.metrics.jobs), true
}

// Spans merges the coordinator's spans for one trace with every live
// worker's. Worker fetch failures are tolerated — a dead worker's spans
// are simply absent, the surviving timeline still renders (the chaos
// contract).
func (c *Coordinator) Spans(traceID string) []obs.Span {
	spans := c.spans.Trace(traceID)
	for _, wk := range c.liveWorkers() {
		cl, _ := wk.client()
		ws, err := cl.Spans(traceID)
		if err != nil {
			continue
		}
		spans = append(spans, ws...)
	}
	obs.SortSpans(spans)
	return spans
}

// Health builds the coordinator's health view in mtserve's wire shape:
// Workers is live cluster members, QueueDepth is cells awaiting
// completion, and the jobs block balances exactly like a worker's.
func (c *Coordinator) Health() serve.HealthResponse {
	h := serve.HealthResponse{
		Status:     "ok",
		Role:       "coordinator",
		Workers:    len(c.liveWorkers()),
		QueueDepth: int(c.metrics.pendingCells.Value()),
		Jobs:       c.metrics.jobs.Health(),
	}
	h.Store = c.durable.Health()
	if c.Draining() {
		h.Status = "draining"
	}
	return h
}

// WriteMetrics implements serve.Executor.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	c.durable.SyncMetrics()
	_, err := c.metrics.set.WriteTo(w)
	return err
}

// handleRegister adds or refreshes a worker.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := c.Refusal(); err != nil {
		serve.WriteError(w, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeRegisterRequest(r.Body)
	if err != nil {
		serve.WriteError(w, &serve.Error{Status: http.StatusBadRequest, Message: err.Error()})
		return
	}
	live, err := c.register(req.Worker, req.URL, req.Slots, time.Now())
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, RegisterResponse{Worker: req.Worker, Workers: live})
}

// handleHeartbeat refreshes a worker's liveness. Unknown workers get 404
// so their agent re-registers (this is how workers rejoin a restarted
// coordinator).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeHeartbeatRequest(r.Body)
	if err != nil {
		serve.WriteError(w, &serve.Error{Status: http.StatusBadRequest, Message: err.Error()})
		return
	}
	if err := c.heartbeat(req.Worker, time.Now()); err != nil {
		serve.WriteError(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, HeartbeatResponse{Worker: req.Worker})
}
