package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
)

// The lease protocol is the worker-side half of the cluster: a
// coordinator (cmd/mtcoord) grants a worker a lease — a batch of sweep
// cells — and the worker drains it through its ordinary queue, worker
// pool, result cache and engine guard, exactly like a locally submitted
// sweep. Three endpoints, all under /internal/v1 (cluster-internal, not
// part of the public API):
//
//	POST /internal/v1/lease             grant a lease (idempotent by ID)
//	GET  /internal/v1/lease/{id}        poll per-cell states and results
//	POST /internal/v1/lease/{id}/steal  reclaim not-yet-started cells
//
// Stealing is what lets an idle worker drain a straggler's tail: the
// coordinator reclaims pending cells from the back of a slow worker's
// lease and re-grants them elsewhere. A stolen cell never runs here, so
// no cell can produce two results inside one lease; across workers the
// simulator's determinism makes any re-execution byte-identical.

// MaxLeaseID caps the coordinator-chosen lease identifier.
const MaxLeaseID = MaxNameLen

// leaseJobPrefix namespaces lease jobs inside the job registry so a
// lease ID can never collide with a content-addressed sweep ID.
const leaseJobPrefix = "lease:"

// LeaseCell is one cell of a lease, in sweep terms (server-side
// placement algorithms only; explicit placements travel via
// /v1/simulate).
type LeaseCell struct {
	App       string `json:"app"`
	Algorithm string `json:"algorithm"`
	Procs     int    `json:"procs"`
}

// LeaseRequest is the POST /internal/v1/lease body.
type LeaseRequest struct {
	// Lease is the coordinator-chosen lease ID. Granting the same ID
	// twice is idempotent: the existing lease's status is returned and
	// nothing is re-enqueued (the coordinator retries over an unreliable
	// network).
	Lease    string      `json:"lease"`
	Params   *Params     `json:"params,omitempty"`
	Infinite bool        `json:"infinite,omitempty"`
	Cells    []LeaseCell `json:"cells"`
	// Trace optionally carries the coordinator's span context in
	// Mtsim-Trace wire form ("<trace>-<span>"), so the worker's lease
	// spans join the sweep's distributed trace.
	Trace string `json:"trace,omitempty"`
}

// LeaseCellStatus is one cell's view inside a LeaseStatus poll. Result
// is attached as soon as the cell is done — the coordinator harvests
// incrementally, it does not wait for the whole lease.
type LeaseCellStatus struct {
	// State is pending, running, done, failed, stolen or drained.
	State  string      `json:"state"`
	Key    string      `json:"key,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
}

// LeaseStatus is the GET /internal/v1/lease/{id} reply.
type LeaseStatus struct {
	Lease     string            `json:"lease"`
	Status    string            `json:"status"`
	Cells     int               `json:"cells"`
	Completed int               `json:"completed"`
	Stolen    int               `json:"stolen"`
	CellState []LeaseCellStatus `json:"cell_states"`
}

// StealRequest is the POST /internal/v1/lease/{id}/steal body.
type StealRequest struct {
	// Max bounds how many pending cells to reclaim.
	Max int `json:"max"`
}

// StealResponse lists the reclaimed cell indices (ascending). Only cells
// that had not started count; a running or finished cell is never
// stolen.
type StealResponse struct {
	Lease  string `json:"lease"`
	Stolen []int  `json:"stolen"`
}

// validLeaseID restricts lease IDs to a URL- and metric-safe alphabet.
func validLeaseID(id string) error {
	if id == "" {
		return errors.New("lease id is required")
	}
	if len(id) > MaxLeaseID {
		return fmt.Errorf("lease id longer than %d bytes", MaxLeaseID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("lease id contains %q (want [A-Za-z0-9._-])", c)
		}
	}
	return nil
}

// Validate checks shape and bounds of a lease grant. Like the public
// decoders it is the complete acceptance predicate for untrusted input.
func (r *LeaseRequest) Validate() error {
	if err := validLeaseID(r.Lease); err != nil {
		return err
	}
	if err := validateParams(r.Params); err != nil {
		return err
	}
	if len(r.Cells) == 0 {
		return errors.New("lease has no cells")
	}
	if len(r.Cells) > MaxSweepCells {
		return fmt.Errorf("lease carries %d cells, limit %d", len(r.Cells), MaxSweepCells)
	}
	for i, c := range r.Cells {
		if err := validateApp(c.App); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if len(c.Algorithm) > MaxNameLen {
			return fmt.Errorf("cell %d: algorithm name longer than %d bytes", i, MaxNameLen)
		}
		if _, err := placement.ByName(c.Algorithm); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if c.Procs < 1 || c.Procs > MaxProcs {
			return fmt.Errorf("cell %d: procs %d out of range [1, %d]", i, c.Procs, MaxProcs)
		}
	}
	if r.Trace != "" {
		if _, ok := obs.ParseTrace(r.Trace); !ok {
			return fmt.Errorf("trace %q is not a Mtsim-Trace value", r.Trace)
		}
	}
	return nil
}

// Validate bounds a steal request.
func (r *StealRequest) Validate() error {
	if r.Max < 1 || r.Max > MaxSweepCells {
		return fmt.Errorf("steal max %d out of range [1, %d]", r.Max, MaxSweepCells)
	}
	return nil
}

// DecodeLeaseRequest reads and validates a POST /internal/v1/lease body.
func DecodeLeaseRequest(r io.Reader) (*LeaseRequest, error) {
	var req LeaseRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeStealRequest reads and validates a steal body.
func DecodeStealRequest(r io.Reader) (*StealRequest, error) {
	var req StealRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// leaseCells expands a lease into cellSpecs in the granted order.
func leaseCells(req *LeaseRequest) []cellSpec {
	cells := make([]cellSpec, len(req.Cells))
	for i, c := range req.Cells {
		cells[i] = cellSpec{
			app: c.App, algorithm: c.Algorithm, procs: c.Procs,
			infinite: req.Infinite,
		}
	}
	return cells
}

// leaseStatus renders the job's lease view: per-cell states with results
// attached to done cells as they finish.
func (j *job) leaseStatus(leaseID string) LeaseStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := LeaseStatus{
		Lease:     leaseID,
		Status:    j.status,
		Cells:     len(j.cells),
		Completed: j.completed,
		Stolen:    j.stolen,
		CellState: make([]LeaseCellStatus, len(j.cells)),
	}
	for i := range j.cells {
		cs := LeaseCellStatus{State: cellStateNames[j.states[i]]}
		switch j.states[i] {
		case cellDone:
			r := j.results[i]
			cs.Key, cs.Cached, cs.Result = r.key, r.cached, r.res
		case cellFailed:
			r := j.results[i]
			cs.Key = r.key
			if r.err != nil {
				cs.Error = r.err.Error()
			}
		}
		st.CellState[i] = cs
	}
	return st
}

// handleLeaseGrant accepts (or idempotently re-acknowledges) a lease.
func (s *Server) handleLeaseGrant(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errServerDraining.Error(), true)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeLeaseRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	j := newJob(leaseJobPrefix+req.Lease, resolveParams(req.Params), leaseCells(req))
	if s.spans != nil {
		if ctx, ok := obs.ParseTrace(req.Trace); ok {
			// Join the coordinator's trace; the lease span ends when the
			// lease job reaches a terminal state. A duplicate grant's span
			// is never ended, so it is never recorded.
			j.span = s.spans.Start(ctx, s.opts.ServiceName, "lease "+req.Lease)
			j.trace = j.span.Context()
		}
	}

	reg, existing := s.jobs.add(j)
	if existing {
		writeJSON(w, http.StatusOK, reg.leaseStatus(req.Lease))
		return
	}
	if err := s.enqueue(j); err != nil {
		s.jobs.remove(j.id)
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
	s.metrics.leasesGranted.Inc()
	writeJSON(w, http.StatusAccepted, j.leaseStatus(req.Lease))
}

// handleLeaseStatus reports a lease's per-cell states and results.
func (s *Server) handleLeaseStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(leaseJobPrefix + id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown lease "+id, false)
		return
	}
	writeJSON(w, http.StatusOK, j.leaseStatus(id))
}

// handleLeaseSteal reclaims pending cells from a lease's tail.
func (s *Server) handleLeaseSteal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(leaseJobPrefix + id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown lease "+id, false)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	req, err := DecodeStealRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	stolen := j.steal(req.Max)
	s.metrics.cellsStolen.Add(int64(len(stolen)))
	if len(stolen) > 0 {
		if s.spans != nil && j.trace.Valid() {
			s.spans.AddEvent(j.trace, s.opts.ServiceName, "steal",
				fmt.Sprintf("%d cells reclaimed", len(stolen)))
		}
		s.publishJob(j)
	}
	writeJSON(w, http.StatusOK, StealResponse{Lease: id, Stolen: stolen})
}
