package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/advise"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// POST /v1/advise — the placement advisor. The client supplies what it
// knows about the workload's sharing, one of:
//
//   - "app": a catalog workload; the server measures its thread-pair
//     coherence traffic with a one-thread-per-processor run (memoized
//     per workload params, like the library's COHERENCE pipeline);
//   - "trace_mtt2": a base64 MTT2 trace the client observed; the server
//     runs the same measurement on it;
//   - "pair" (+ "lengths"): an already-measured pair matrix, e.g. an
//     online checkpoint exported from a live system.
//
// The reply is the COHERENCE clustering of that matrix plus the
// predicted cycle savings over the caller's current placement (avoided
// cross-processor traffic times the memory latency) — the same metric
// the online engine's policies act on mid-run.

// AdviseRequest is the POST /v1/advise body. Exactly one of App,
// TraceMTT2 or Pair must be set.
type AdviseRequest struct {
	Params *Params `json:"params,omitempty"`
	// App names a catalog workload to measure server-side.
	App string `json:"app,omitempty"`
	// TraceMTT2 is an observed MTT2 trace (base64 in JSON) to measure.
	TraceMTT2 []byte `json:"trace_mtt2,omitempty"`
	// Pair is a live per-thread-pair traffic matrix (square, symmetric by
	// convention); Lengths must carry the per-thread instruction counts
	// alongside, for load balancing.
	Pair    [][]uint64 `json:"pair,omitempty"`
	Lengths []uint64   `json:"lengths,omitempty"`
	// Procs is the processor count to recommend a placement for.
	Procs int `json:"procs"`
	// Current, when set, is the caller's current placement; the reply's
	// predicted savings compare the recommendation against it.
	Current *PlacementSpec `json:"current,omitempty"`
	// MemLatency overrides the cycle value of one avoided remote
	// coherence event in the savings prediction (0 = the server's
	// configured memory latency).
	MemLatency uint64 `json:"mem_latency,omitempty"`
}

// AdviseResponse is the POST /v1/advise reply.
type AdviseResponse struct {
	// Placement is the recommended clustering (algorithm "COHERENCE").
	Placement *PlacementSpec `json:"placement"`
	// Threads is the thread count the recommendation covers.
	Threads int `json:"threads"`
	// CurrentCross and ProposedCross are the cross-processor shares of
	// the pair traffic under the current and recommended placements.
	CurrentCross  uint64 `json:"current_cross"`
	ProposedCross uint64 `json:"proposed_cross"`
	// PredictedSavings is the predicted cycle savings of adopting the
	// recommendation (0 without a current placement, or when the current
	// placement is already at least as good).
	PredictedSavings uint64 `json:"predicted_savings"`
	// Measured reports that the server ran a measurement simulation (app
	// and trace_mtt2 sources; false for the pair source).
	Measured bool `json:"measured,omitempty"`
	// Trace is the request's distributed-trace ID.
	Trace string `json:"trace,omitempty"`
}

// DecodeAdviseRequest reads and validates a POST /v1/advise body.
func DecodeAdviseRequest(r io.Reader) (*AdviseRequest, error) {
	var req AdviseRequest
	if err := DecodeStrict(r, &req, MaxRequestBytes); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks shape and bounds; like the other request validators it
// is the complete acceptance predicate for untrusted input.
func (r *AdviseRequest) Validate() error {
	if err := validateParams(r.Params); err != nil {
		return err
	}
	sources := 0
	if r.App != "" {
		sources++
	}
	if len(r.TraceMTT2) > 0 {
		sources++
	}
	if len(r.Pair) > 0 {
		sources++
	}
	if sources != 1 {
		return errors.New("exactly one of app, trace_mtt2 or pair is required")
	}
	if r.App != "" {
		if err := validateApp(r.App); err != nil {
			return err
		}
	}
	if len(r.Pair) > 0 {
		n := len(r.Pair)
		if n > MaxClusterThreads {
			return fmt.Errorf("pair matrix exceeds %d threads", MaxClusterThreads)
		}
		for i, row := range r.Pair {
			if len(row) != n {
				return fmt.Errorf("pair row %d has %d columns, want %d", i, len(row), n)
			}
		}
		if len(r.Lengths) != n {
			return fmt.Errorf("lengths has %d entries, want %d (one per pair row)", len(r.Lengths), n)
		}
	} else if len(r.Lengths) > 0 {
		return errors.New("lengths is only valid with pair")
	}
	if r.Procs < 1 || r.Procs > MaxProcs {
		return fmt.Errorf("procs %d out of range [1, %d]", r.Procs, MaxProcs)
	}
	if r.Current != nil {
		if err := r.Current.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Advise answers POST /v1/advise synchronously: the measurement (when
// one runs) is a single bounded one-thread-per-processor cell, not a
// sweep, so it does not flow through the job queue.
func (s *Server) Advise(req *AdviseRequest, parent obs.SpanContext) (*AdviseResponse, obs.SpanContext, error) {
	span := s.spans.Start(parent, s.opts.ServiceName, "advise "+adviseLabel(req))
	defer span.End()
	sctx := span.Context()
	resp, err := s.advise(req, sctx)
	if err != nil {
		return nil, sctx, &Error{Status: http.StatusUnprocessableEntity, Message: err.Error()}
	}
	return resp, sctx, nil
}

// adviseLabel names the request's sharing source for spans.
func adviseLabel(req *AdviseRequest) string {
	switch {
	case req.App != "":
		return req.App
	case len(req.TraceMTT2) > 0:
		return "trace"
	default:
		return "pair"
	}
}

// advise resolves the request's sharing source to a (pair, lengths)
// measurement and recommends a placement from it.
func (s *Server) advise(req *AdviseRequest, sctx obs.SpanContext) (*AdviseResponse, error) {
	var (
		pair     [][]uint64
		lengths  []uint64
		memLat   = req.MemLatency
		measured bool
	)
	switch {
	case req.App != "":
		suite := s.suiteFor(ResolveParams(req.Params))
		tr, err := suite.Trace(req.App)
		if err != nil {
			return nil, err
		}
		measureStart := time.Now()
		pair, _, err = suite.CoherenceMeasurement(req.App)
		if err != nil {
			return nil, err
		}
		s.spans.AddSpan(sctx, s.opts.ServiceName, "measure "+req.App, measureStart, time.Now())
		lengths, measured = advise.Lengths(tr), true
		if memLat == 0 {
			cfg, err := suite.Config(req.App, req.Procs, false)
			if err != nil {
				return nil, err
			}
			memLat = cfg.MemLatency
		}
	case len(req.TraceMTT2) > 0:
		tr, err := trace.ReadFrom(bytes.NewReader(req.TraceMTT2))
		if err != nil {
			return nil, fmt.Errorf("trace_mtt2: %w", err)
		}
		if tr.NumThreads() > MaxProcs {
			return nil, fmt.Errorf("trace has %d threads; the one-thread-per-processor measurement is capped at %d", tr.NumThreads(), MaxProcs)
		}
		cfg := sim.DefaultConfig(tr.NumThreads())
		if memLat != 0 {
			cfg.MemLatency = memLat
		} else {
			memLat = cfg.MemLatency
		}
		measureStart := time.Now()
		pair, _, err = advise.MeasurePairTraffic(tr, cfg)
		if err != nil {
			return nil, err
		}
		s.spans.AddSpan(sctx, s.opts.ServiceName, "measure trace", measureStart, time.Now())
		lengths, measured = advise.Lengths(tr), true
	default:
		pair, lengths = req.Pair, req.Lengths
		if memLat == 0 {
			memLat = sim.DefaultConfig(req.Procs).MemLatency
		}
	}

	var cur *placement.Placement
	if req.Current != nil {
		cur = &placement.Placement{Algorithm: req.Current.Algorithm, Clusters: req.Current.Clusters}
	}
	rec, err := advise.Recommend(pair, lengths, req.Procs, cur, memLat)
	if err != nil {
		return nil, err
	}
	return &AdviseResponse{
		Placement: &PlacementSpec{
			Algorithm: rec.Placement.Algorithm,
			Clusters:  rec.Placement.Clusters,
		},
		Threads:          len(lengths),
		CurrentCross:     rec.CurrentCross,
		ProposedCross:    rec.ProposedCross,
		PredictedSavings: rec.PredictedSavings,
		Measured:         measured,
		Trace:            sctx.Trace,
	}, nil
}
