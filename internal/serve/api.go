// Package serve is the simulation-as-a-service layer: the public JSON
// API both daemons serve (handlers.go lists its nine routes; see
// DESIGN.md §10) and the worker behind cmd/mtserve. The handler set runs
// over an Executor: a Server here, or the cluster coordinator
// (internal/cluster) behind cmd/mtcoord.
//
// On a Server every simulation flows through a bounded job queue drained
// by a worker pool; a full queue answers 429 with Retry-After
// (backpressure, never unbounded buffering). Results are memoized in a
// bounded memo.Table under content addresses (internal/serve/rescache)
// keyed exactly the way core.Suite memoizes locally, so repeated and
// overlapping sweeps are served from cache. Every cell runs on the fast engine through a
// resilience.EngineGuard, which applies the per-cell watchdog.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/advise"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request-size and shape bounds. The decoder runs on untrusted input, so
// allocations are bounded the same way the MTT2 trace reader's are: hard
// byte limit first, element-count limits after parsing.
const (
	// MaxRequestBytes caps the request body.
	MaxRequestBytes = 1 << 20
	// MaxProcs caps the simulated machine size.
	MaxProcs = 512
	// MaxScale caps workload scale (trace memory is linear in it).
	MaxScale = 4.0
	// MaxNameLen caps app and algorithm name lengths.
	MaxNameLen = 128
	// MaxClusterThreads caps the total thread count of an explicit
	// placement.
	MaxClusterThreads = 4096
	// MaxSweepCells caps the cell cross-product of one sweep job.
	MaxSweepCells = 4096
	// MaxSweepList caps each dimension list of a sweep.
	MaxSweepList = 64
)

// Params selects the workload generation parameters of a request. A nil
// Params in a request means the server's defaults.
type Params struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
}

// PlacementSpec is an explicit placement: the exact clusters to simulate,
// bypassing the server-side placement algorithms. Algorithm is a free
// label (it names the placement in results and cache keys).
type PlacementSpec struct {
	Algorithm string  `json:"algorithm"`
	Clusters  [][]int `json:"clusters"`
}

// ConfigSpec mirrors sim.Config field-for-field with wire-friendly names.
// A zero field means "the server derives it" (via sim.DefaultConfig plus
// the workload's preferred cache size), except the booleans, which are
// taken literally.
type ConfigSpec struct {
	Processors       int    `json:"processors"`
	MaxContexts      int    `json:"max_contexts,omitempty"`
	CacheSize        int    `json:"cache_size,omitempty"`
	Associativity    int    `json:"associativity,omitempty"`
	LineSize         int    `json:"line_size,omitempty"`
	HitCycles        uint64 `json:"hit_cycles,omitempty"`
	MemLatency       uint64 `json:"mem_latency,omitempty"`
	SwitchCycles     uint64 `json:"switch_cycles,omitempty"`
	Protocol         string `json:"protocol,omitempty"` // "invalidate" (default) or "update"
	NetworkChannels  int    `json:"network_channels,omitempty"`
	NetworkOccupancy uint64 `json:"network_occupancy,omitempty"`
	TrackWriteRuns   bool   `json:"track_write_runs,omitempty"`
	InfiniteCache    bool   `json:"infinite_cache,omitempty"`
}

// ConfigSpecOf converts a sim.Config to its wire form (client side).
func ConfigSpecOf(cfg sim.Config) ConfigSpec {
	return ConfigSpec{
		Processors:       cfg.Processors,
		MaxContexts:      cfg.MaxContexts,
		CacheSize:        cfg.CacheSize,
		Associativity:    cfg.Associativity,
		LineSize:         cfg.LineSize,
		HitCycles:        cfg.HitCycles,
		MemLatency:       cfg.MemLatency,
		SwitchCycles:     cfg.SwitchCycles,
		Protocol:         cfg.Protocol.String(),
		NetworkChannels:  cfg.NetworkChannels,
		NetworkOccupancy: cfg.NetworkOccupancy,
		TrackWriteRuns:   cfg.TrackWriteRuns,
		InfiniteCache:    cfg.InfiniteCache,
	}
}

// ToSim converts the wire form back to a sim.Config, filling defaulted
// fields from sim.DefaultConfig.
func (c ConfigSpec) ToSim() (sim.Config, error) {
	cfg := sim.DefaultConfig(c.Processors)
	cfg.MaxContexts = c.MaxContexts
	if c.CacheSize != 0 {
		cfg.CacheSize = c.CacheSize
	}
	cfg.Associativity = c.Associativity
	if c.LineSize != 0 {
		cfg.LineSize = c.LineSize
	}
	if c.HitCycles != 0 {
		cfg.HitCycles = c.HitCycles
	}
	if c.MemLatency != 0 {
		cfg.MemLatency = c.MemLatency
	}
	if c.SwitchCycles != 0 {
		cfg.SwitchCycles = c.SwitchCycles
	}
	switch c.Protocol {
	case "", sim.Invalidate.String():
		cfg.Protocol = sim.Invalidate
	case sim.Update.String():
		cfg.Protocol = sim.Update
	default:
		return sim.Config{}, fmt.Errorf("unknown protocol %q", c.Protocol)
	}
	cfg.NetworkChannels = c.NetworkChannels
	if c.NetworkOccupancy != 0 {
		cfg.NetworkOccupancy = c.NetworkOccupancy
	}
	cfg.TrackWriteRuns = c.TrackWriteRuns
	cfg.InfiniteCache = c.InfiniteCache
	return cfg, nil
}

// SimulateRequest is the POST /v1/simulate body: one simulation cell.
// The cell is named either by Algorithm (a server-side placement
// algorithm applied to App's sharing data) or by an explicit Placement;
// exactly one must be set. Config, when present, overrides the derived
// (Procs, Infinite) machine entirely.
type SimulateRequest struct {
	Params    *Params        `json:"params,omitempty"`
	App       string         `json:"app"`
	Algorithm string         `json:"algorithm,omitempty"`
	Placement *PlacementSpec `json:"placement,omitempty"`
	Procs     int            `json:"procs,omitempty"`
	Infinite  bool           `json:"infinite,omitempty"`
	Config    *ConfigSpec    `json:"config,omitempty"`
	Counters  bool           `json:"counters,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: the cross product
// apps x algorithms x procs, simulated asynchronously under one job.
type SweepRequest struct {
	Params     *Params  `json:"params,omitempty"`
	Apps       []string `json:"apps"`
	Algorithms []string `json:"algorithms"`
	Procs      []int    `json:"procs"`
	Infinite   bool     `json:"infinite,omitempty"`
}

// Cells returns the size of the sweep's cross product.
func (r *SweepRequest) Cells() int {
	return len(r.Apps) * len(r.Algorithms) * len(r.Procs)
}

// SimulateResponse is the POST /v1/simulate reply.
type SimulateResponse struct {
	// Key is the cell's content address (lowercase hex SHA-256).
	Key string `json:"key"`
	// Cached reports whether the result came from the result cache.
	Cached bool `json:"cached"`
	// Result is the full simulation result, deeply equal to the
	// corresponding direct sim.Run / core.Suite library call.
	Result *sim.Result `json:"result"`
	// Counters holds the request-scoped probe counts when the request set
	// "counters" and the cell was actually simulated (a cache hit carries
	// no counters — nothing ran).
	Counters *obs.Counter `json:"counters,omitempty"`
	// Trace is the request's distributed-trace ID, usable against
	// GET /v1/trace/{id}.
	Trace string `json:"trace,omitempty"`
}

// CellResult is one completed cell of a sweep job.
type CellResult struct {
	App       string      `json:"app"`
	Algorithm string      `json:"algorithm"`
	Procs     int         `json:"procs"`
	Key       string      `json:"key"`
	Cached    bool        `json:"cached"`
	Result    *sim.Result `json:"result"`
}

// Job status values.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusRetriable = "retriable" // drained before completion; resubmit
	StatusCanceled  = "canceled"
)

// SweepAccepted is the POST /v1/sweep reply (HTTP 202).
type SweepAccepted struct {
	// Job is the content-addressed job ID: the same sweep resubmitted (to
	// this server or a restarted one) maps to the same ID.
	Job    string `json:"job"`
	Status string `json:"status"`
	Cells  int    `json:"cells"`
	// Existing reports that an identical sweep was already known; its
	// job record was returned instead of a new one.
	Existing bool `json:"existing,omitempty"`
	// Trace is the job's distributed-trace ID (the existing job's ID when
	// Existing).
	Trace string `json:"trace,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} reply.
type JobStatus struct {
	Job       string `json:"job"`
	Status    string `json:"status"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Error     string `json:"error,omitempty"`
	// Trace is the job's distributed-trace ID, usable against
	// GET /v1/trace/{id}. Empty for a coordinator job rebuilt from its
	// store record.
	Trace string `json:"trace,omitempty"`
	// Results carries every cell (in the sweep's deterministic
	// apps x algorithms x procs order) once the job is done.
	Results []CellResult `json:"results,omitempty"`
}

// CacheHealth summarizes the result cache inside /healthz.
type CacheHealth struct {
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// StoreHealth summarizes the durable result store inside /healthz
// (present only when the daemon runs with -store-dir).
type StoreHealth struct {
	Entries        int     `json:"entries"`
	SealedSegments int     `json:"sealed_segments"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	Puts           uint64  `json:"puts"`
	Quarantined    uint64  `json:"quarantined"`
	HitRate        float64 `json:"hit_rate"`
}

// JobsHealth summarizes job accounting inside /healthz. Accepted ==
// Completed + Failed + Retriable + Canceled + live jobs; graceful
// shutdown must never lose an accepted job.
type JobsHealth struct {
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Retriable int64 `json:"retriable"`
	Canceled  int64 `json:"canceled"`
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	// Status is "ok" or "draining" (shutdown in progress, new work
	// refused).
	Status string `json:"status"`
	// Role is the one field that tells the two daemons' shared API
	// apart: empty on a worker (mtserve), "coordinator" on mtcoord.
	Role          string      `json:"role,omitempty"`
	Workers       int         `json:"workers"`
	QueueDepth    int         `json:"queue_depth"`
	QueueCapacity int         `json:"queue_capacity"`
	InFlight      int         `json:"in_flight"`
	Cache         CacheHealth `json:"cache"`
	Jobs          JobsHealth  `json:"jobs"`
	// Store reports the durable result store when one is attached.
	Store *StoreHealth `json:"store,omitempty"`
}

// PlacementsResponse is the GET /v1/placements reply: the server's
// catalog of simulatable cells.
type PlacementsResponse struct {
	Apps       []string `json:"apps"`
	Algorithms []string `json:"algorithms"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// Retriable hints that the identical request may succeed later
	// (queue full, server draining).
	Retriable bool `json:"retriable,omitempty"`
}

// DecodeStrict decodes exactly one JSON value from r into v with unknown
// fields rejected and the byte budget (limit) enforced before any
// allocation proportional to the input happens. Every request decoder of
// both daemons runs through it.
func DecodeStrict(r io.Reader, v any, limit int64) error {
	lr := io.LimitReader(r, limit+1)
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) && lr.(*io.LimitedReader).N == 0 {
			return fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON request")
	}
	return nil
}

// DecodeSimulateRequest reads and validates a POST /v1/simulate body.
func DecodeSimulateRequest(r io.Reader) (*SimulateRequest, error) {
	var req SimulateRequest
	if err := DecodeStrict(r, &req, MaxRequestBytes); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSweepRequest reads and validates a POST /v1/sweep body.
func DecodeSweepRequest(r io.Reader) (*SweepRequest, error) {
	var req SweepRequest
	if err := DecodeStrict(r, &req, MaxRequestBytes); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func validateParams(p *Params) error {
	if p == nil {
		return nil
	}
	if p.Scale <= 0 || p.Scale > MaxScale {
		return fmt.Errorf("params.scale %g out of range (0, %g]", p.Scale, MaxScale)
	}
	return nil
}

// validateAlgorithmName accepts a server-side algorithm name: a static
// algorithm from the placement registry, or a virtual ONLINE/… name (see
// the advise package) naming an online adaptive-placement configuration.
func validateAlgorithmName(alg string) error {
	if len(alg) > MaxNameLen {
		return fmt.Errorf("algorithm name longer than %d bytes", MaxNameLen)
	}
	if _, ok, err := advise.ParseOnlineAlgorithm(alg); ok || err != nil {
		return err
	}
	_, err := placement.ByName(alg)
	return err
}

func validateApp(app string) error {
	if app == "" {
		return errors.New("app is required")
	}
	if len(app) > MaxNameLen {
		return fmt.Errorf("app name longer than %d bytes", MaxNameLen)
	}
	if _, err := workload.ByName(app); err != nil {
		return err
	}
	return nil
}

// Validate checks shape and bounds. It is the complete acceptance
// predicate for untrusted input: anything it passes is safe to enqueue
// (the simulation itself may still fail, e.g. a placement whose thread
// count does not match the app's trace).
func (r *SimulateRequest) Validate() error {
	if err := validateParams(r.Params); err != nil {
		return err
	}
	if err := validateApp(r.App); err != nil {
		return err
	}
	switch {
	case r.Algorithm != "" && r.Placement != nil:
		return errors.New("algorithm and placement are mutually exclusive")
	case r.Algorithm == "" && r.Placement == nil:
		return errors.New("one of algorithm or placement is required")
	case r.Algorithm != "":
		if err := validateAlgorithmName(r.Algorithm); err != nil {
			return err
		}
	default:
		if err := r.Placement.validate(); err != nil {
			return err
		}
	}
	if r.Config != nil {
		if r.Config.Processors < 1 || r.Config.Processors > MaxProcs {
			return fmt.Errorf("config.processors %d out of range [1, %d]", r.Config.Processors, MaxProcs)
		}
		cfg, err := r.Config.ToSim()
		if err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		if cfg.CacheSize > 2*sim.InfiniteCacheSize {
			return fmt.Errorf("config.cache_size %d exceeds the %d-byte bound", cfg.CacheSize, 2*sim.InfiniteCacheSize)
		}
	} else if r.Procs < 1 || r.Procs > MaxProcs {
		return fmt.Errorf("procs %d out of range [1, %d]", r.Procs, MaxProcs)
	}
	return nil
}

func (p *PlacementSpec) validate() error {
	if p.Algorithm == "" {
		return errors.New("placement.algorithm label is required")
	}
	if len(p.Algorithm) > MaxNameLen {
		return fmt.Errorf("placement.algorithm longer than %d bytes", MaxNameLen)
	}
	if len(p.Clusters) == 0 {
		return errors.New("placement.clusters is empty")
	}
	total := 0
	for i, cl := range p.Clusters {
		total += len(cl)
		if total > MaxClusterThreads {
			return fmt.Errorf("placement exceeds %d threads", MaxClusterThreads)
		}
		for _, tid := range cl {
			if tid < 0 || tid >= MaxClusterThreads {
				return fmt.Errorf("cluster %d: thread id %d out of range [0, %d)", i, tid, MaxClusterThreads)
			}
		}
	}
	return nil
}

// Validate checks shape and bounds of a sweep request.
func (r *SweepRequest) Validate() error {
	if err := validateParams(r.Params); err != nil {
		return err
	}
	if len(r.Apps) == 0 || len(r.Algorithms) == 0 || len(r.Procs) == 0 {
		return errors.New("apps, algorithms and procs must all be non-empty")
	}
	if len(r.Apps) > MaxSweepList || len(r.Algorithms) > MaxSweepList || len(r.Procs) > MaxSweepList {
		return fmt.Errorf("sweep dimension exceeds %d entries", MaxSweepList)
	}
	if r.Cells() > MaxSweepCells {
		return fmt.Errorf("sweep expands to %d cells, limit %d", r.Cells(), MaxSweepCells)
	}
	for _, app := range r.Apps {
		if err := validateApp(app); err != nil {
			return err
		}
	}
	for _, alg := range r.Algorithms {
		if err := validateAlgorithmName(alg); err != nil {
			return err
		}
	}
	for _, p := range r.Procs {
		if p < 1 || p > MaxProcs {
			return fmt.Errorf("procs %d out of range [1, %d]", p, MaxProcs)
		}
	}
	return nil
}
