// Package cluster is the distributed sweep layer: a coordinator daemon
// (cmd/mtcoord) that serves mtserve's public API — the coordinator is a
// serve.Executor under serve's handler set (handlers.go) — but executes
// sweeps across N registered mtserve workers. Cells are routed by rescache
// content address (shard.go), granted to workers as leases (the
// worker-side protocol in internal/serve/lease.go), harvested
// incrementally, stolen back from stragglers for idle workers, and
// requeued when a worker dies mid-lease. Because the simulator is
// deterministic and cell execution idempotent, every rebalancing —
// steal, requeue, duplicate execution after a partition — yields
// byte-identical results; the chaos test suite holds the cluster to
// exactly that.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/url"

	"repro/internal/serve"
)

// Bounds for the cluster-internal decoders. Like the public API decoders
// they run on untrusted input: hard byte limit first, field bounds after.
const (
	// MaxRequestBytes caps a registration/heartbeat body.
	MaxRequestBytes = 1 << 16
	// MaxWorkerID caps a worker identifier.
	MaxWorkerID = serve.MaxNameLen
	// MaxWorkerURL caps a worker's advertised base URL.
	MaxWorkerURL = 256
	// MaxWorkers caps cluster membership; registrations beyond it are
	// refused (a runaway registration loop must not grow the registry
	// without bound).
	MaxWorkers = 256
)

// RegisterRequest is the POST /cluster/v1/register body: a worker
// announcing itself. Re-registering an existing ID is idempotent and
// refreshes the URL and liveness (a restarted worker re-registers).
type RegisterRequest struct {
	// Worker is the caller-chosen worker ID ([A-Za-z0-9._-]).
	Worker string `json:"worker"`
	// URL is the worker's advertised base URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	Worker string `json:"worker"`
	// Workers is the live-member count after this registration.
	Workers int `json:"workers"`
}

// HeartbeatRequest is the POST /cluster/v1/heartbeat body. A worker that
// stops heartbeating for longer than the coordinator's timeout is
// declared dead and its in-flight cells are requeued.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	Worker string `json:"worker"`
}

// validWorkerID restricts worker IDs to a URL- and metric-safe alphabet.
func validWorkerID(id string) error {
	if id == "" {
		return errors.New("worker id is required")
	}
	if len(id) > MaxWorkerID {
		return fmt.Errorf("worker id longer than %d bytes", MaxWorkerID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("worker id contains %q (want [A-Za-z0-9._-])", c)
		}
	}
	return nil
}

// Validate checks a registration's shape and bounds.
func (r *RegisterRequest) Validate() error {
	if err := validWorkerID(r.Worker); err != nil {
		return err
	}
	if r.URL == "" {
		return errors.New("worker url is required")
	}
	if len(r.URL) > MaxWorkerURL {
		return fmt.Errorf("worker url longer than %d bytes", MaxWorkerURL)
	}
	u, err := url.Parse(r.URL)
	if err != nil {
		return fmt.Errorf("worker url: %v", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("worker url %q must be absolute http(s)", r.URL)
	}
	return nil
}

// Validate checks a heartbeat's shape.
func (r *HeartbeatRequest) Validate() error {
	return validWorkerID(r.Worker)
}

// DecodeRegisterRequest reads and validates a registration body.
func DecodeRegisterRequest(r io.Reader) (*RegisterRequest, error) {
	var req RegisterRequest
	if err := serve.DecodeStrict(r, &req, MaxRequestBytes); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeHeartbeatRequest reads and validates a heartbeat body.
func DecodeHeartbeatRequest(r io.Reader) (*HeartbeatRequest, error) {
	var req HeartbeatRequest
	if err := serve.DecodeStrict(r, &req, MaxRequestBytes); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}
