// Package client is the Go client for mtserve's JSON API. It is what
// cmd/experiments -remote and mtserve -loadgen speak; the types are
// shared with the server (package serve), so a decoded result is the
// same sim.Result the library would have returned — deep-equality
// between remote and local runs is a test invariant, not an
// approximation.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Client talks to one mtserve instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Policy is the backoff schedule for transient failures (429
	// queue-full, 502/503/504, connection errors), run on the shared
	// internal/retry core with the server's Retry-After honored as a
	// floor. The zero Policy fails fast (one attempt) unless the legacy
	// MaxRetries/RetryWait fields ask otherwise.
	Policy retry.Policy
	// RetryBudget caps the total time spent retrying one call (0 = no
	// cap beyond the attempt bound). On exhaustion the error reports the
	// attempt count and wraps the last failure.
	RetryBudget time.Duration
	// MaxRetries bounds retries of retriable rejections. Default 0: fail
	// fast. Superseded by Policy.MaxAttempts when that is set.
	MaxRetries int
	// RetryWait is the base backoff delay. Default 250ms. Superseded by
	// Policy.BaseDelay when that is set.
	RetryWait time.Duration
}

// New returns a client for the given base URL.
func New(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx reply, decoded.
type APIError struct {
	Status    int
	Message   string
	Retriable bool
	// RetryAfter is the server's parsed Retry-After hint (0 if absent);
	// the retry loop uses it as a backoff floor.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("mtserve: HTTP %d: %s", e.Status, e.Message)
}

// IsRetriable reports whether err is transient: an APIError the server
// marked retriable, a transient status (429 backpressure, 502/503/504),
// or a transport-level failure (every API POST is idempotent — content-
// addressed jobs, deterministic simulations — so re-sending is safe).
func IsRetriable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retriable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// retriableStatus lists replies that are transient by protocol even when
// the body carries no retriable flag (e.g. a proxy answered, not
// mtserve).
func retriableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// post sends one JSON request and decodes the 2xx reply into out,
// retrying retriable rejections up to MaxRetries times.
func (c *Client) post(path string, in, out any) error {
	return c.postTrace(path, in, out, "")
}

// postTrace is post with an optional Mtsim-Trace header value ("" sends
// no header) so proxies can propagate a distributed-trace context.
// Transient failures retry through the shared backoff core: exponential
// delays floored by the server's Retry-After, bounded by the policy's
// attempt budget and the client's RetryBudget; the final error reports
// how many attempts were spent and wraps the last failure (errors.As
// still reaches the *APIError).
func (c *Client) postTrace(path string, in, out any, trace string) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	pol := c.policy()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := c.roundTrip(http.MethodPost, path, body, out, trace)
		if err == nil || !IsRetriable(err) {
			return err
		}
		if attempt >= pol.Attempts() {
			if attempt == 1 {
				// Fail-fast configuration: keep the bare error (callers
				// match on it directly, e.g. backpressure tests).
				return err
			}
			return fmt.Errorf("mtserve: giving up after %d attempts over %s: %w",
				attempt, time.Since(start).Round(time.Millisecond), err)
		}
		var hint time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}
		// Midpoint jitter: client-side schedules stay deterministic for
		// the differential tests; decorrelation lives server-side.
		delay := pol.Delay(attempt-1, hint, 0.5)
		if c.RetryBudget > 0 && time.Since(start)+delay > c.RetryBudget {
			return fmt.Errorf("mtserve: retry budget %s exhausted after %d attempts: %w",
				c.RetryBudget, attempt, err)
		}
		time.Sleep(delay)
	}
}

// policy resolves the effective retry policy, honoring the legacy
// MaxRetries/RetryWait fields when the structured Policy is unset.
func (c *Client) policy() retry.Policy {
	p := c.Policy
	if p.MaxAttempts == 0 {
		p.MaxAttempts = c.MaxRetries + 1
	}
	if p.BaseDelay == 0 {
		if c.RetryWait > 0 {
			p.BaseDelay = c.RetryWait
		} else {
			p.BaseDelay = 250 * time.Millisecond
		}
	}
	if p.Jitter == 0 {
		p.Jitter = -1 // deterministic schedule unless explicitly jittered
	}
	return p
}

func (c *Client) get(path string, out any) error {
	return c.roundTrip(http.MethodGet, path, nil, out, "")
}

func (c *Client) roundTrip(method, path string, body []byte, out any, trace string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var er serve.ErrorResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err != nil || er.Error == "" {
			er.Error = resp.Status
		}
		ae := &APIError{
			Status:    resp.StatusCode,
			Message:   er.Error,
			Retriable: er.Retriable || retriableStatus(resp.StatusCode),
		}
		if ra, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			ae.RetryAfter = ra
		}
		return ae
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Simulate runs one cell synchronously.
func (c *Client) Simulate(req *serve.SimulateRequest) (*serve.SimulateResponse, error) {
	return c.SimulateTrace(req, "")
}

// SimulateTrace is Simulate joining an existing distributed trace: trace
// is a Mtsim-Trace header value ("" sends no header). The coordinator's
// proxy path uses it so a proxied cell's worker spans land in the
// caller's trace.
func (c *Client) SimulateTrace(req *serve.SimulateRequest, trace string) (*serve.SimulateResponse, error) {
	var out serve.SimulateResponse
	if err := c.postTrace("/v1/simulate", req, &out, trace); err != nil {
		return nil, err
	}
	if out.Result == nil {
		return nil, errors.New("mtserve: simulate reply without a result")
	}
	return &out, nil
}

// Advise asks the placement advisor for a recommendation: the
// COHERENCE clustering of the request's sharing source (catalog app,
// observed MTT2 trace, or live pair matrix) with predicted savings over
// the caller's current placement.
func (c *Client) Advise(req *serve.AdviseRequest) (*serve.AdviseResponse, error) {
	return c.AdviseTrace(req, "")
}

// AdviseTrace is Advise joining an existing distributed trace (the
// coordinator's proxy path, like SimulateTrace).
func (c *Client) AdviseTrace(req *serve.AdviseRequest, trace string) (*serve.AdviseResponse, error) {
	var out serve.AdviseResponse
	if err := c.postTrace("/v1/advise", req, &out, trace); err != nil {
		return nil, err
	}
	if out.Placement == nil {
		return nil, errors.New("mtserve: advise reply without a placement")
	}
	return &out, nil
}

// Spans fetches the raw span list for one trace ID. An unknown trace is
// not an error — it returns an empty slice, so a coordinator can merge
// worker stores best-effort.
func (c *Client) Spans(traceID string) ([]obs.Span, error) {
	var out serve.TraceSpans
	if err := c.get("/v1/trace/"+traceID+"?format=spans", &out); err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			return nil, nil
		}
		return nil, err
	}
	return out.Spans, nil
}

// Sweep submits an asynchronous sweep.
func (c *Client) Sweep(req *serve.SweepRequest) (*serve.SweepAccepted, error) {
	var out serve.SweepAccepted
	if err := c.post("/v1/sweep", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches a job's status.
func (c *Client) Job(id string) (*serve.JobStatus, error) {
	var out serve.JobStatus
	if err := c.get("/v1/jobs/"+id, &out); err != nil {
		// A drained (retriable) job answers 503 but still carries the
		// status body; surface it as a status, not an error.
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable {
			return &serve.JobStatus{Job: id, Status: serve.StatusRetriable}, nil
		}
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it reaches a terminal status or the timeout
// elapses (0 = wait forever).
func (c *Client) WaitJob(id string, poll, timeout time.Duration) (*serve.JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		st, err := c.Job(id)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case serve.StatusDone, serve.StatusFailed, serve.StatusRetriable, serve.StatusCanceled:
			return st, nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("mtserve: job %s still %s after %s", id, st.Status, timeout)
		}
		time.Sleep(poll)
	}
}

// Health fetches /healthz (valid on both 200 and 503-draining replies).
func (c *Client) Health() (*serve.HealthResponse, error) {
	var out serve.HealthResponse
	err := c.get("/healthz", &out)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable {
			out.Status = "draining"
			return &out, nil
		}
		return nil, err
	}
	return &out, nil
}

// Placements fetches the server's catalog.
func (c *Client) Placements() (*serve.PlacementsResponse, error) {
	var out serve.PlacementsResponse
	if err := c.get("/v1/placements", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics() (string, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("mtserve: /metrics HTTP %d", resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return string(b), err
}

// Lease grants (or idempotently re-acknowledges) a lease on a worker.
// This is the cluster-internal protocol a coordinator speaks; ordinary
// clients never call it.
func (c *Client) Lease(req *serve.LeaseRequest) (*serve.LeaseStatus, error) {
	var out serve.LeaseStatus
	if err := c.post("/internal/v1/lease", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// LeaseStatus polls a lease's per-cell states and results.
func (c *Client) LeaseStatus(id string) (*serve.LeaseStatus, error) {
	var out serve.LeaseStatus
	if err := c.get("/internal/v1/lease/"+id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Steal reclaims up to max not-yet-started cells from a lease.
func (c *Client) Steal(id string, max int) (*serve.StealResponse, error) {
	var out serve.StealResponse
	if err := c.post("/internal/v1/lease/"+id+"/steal", &serve.StealRequest{Max: max}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SimulateCell is the convenience the remote runner uses: it ships an
// explicit placement and full config (so COHERENCE placements and
// ablation configs survive the wire exactly) and returns the bare
// result.
func (c *Client) SimulateCell(params serve.Params, app string, placementAlg string, clusters [][]int, cfg sim.Config) (*sim.Result, error) {
	spec := serve.ConfigSpecOf(cfg)
	resp, err := c.Simulate(&serve.SimulateRequest{
		Params:    &params,
		App:       app,
		Placement: &serve.PlacementSpec{Algorithm: placementAlg, Clusters: clusters},
		Config:    &spec,
	})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}
