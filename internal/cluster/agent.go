package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Agent is the worker-side membership loop: it registers an mtserve
// instance with a coordinator and heartbeats until stopped. It is
// deliberately dumb — all scheduling intelligence lives on the
// coordinator; the agent only reports the worker's pool size, keeps its
// liveness fresh and re-registers when the coordinator has forgotten it
// (a coordinator restart answers heartbeats with 404).
type Agent struct {
	coordURL string
	workerID string
	selfURL  string
	slots    int
	interval time.Duration
	log      *slog.Logger

	// ctx bounds every request to the coordinator; Stop cancels it, so a
	// coordinator that never answers cannot hold up the worker's
	// shutdown.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// StartAgent registers worker `id`, advertised at selfURL with a pool of
// slots simulation workers, with the coordinator at coordURL and
// heartbeats every interval (default 500ms). Registration failures are
// retried forever — a worker that outlives a coordinator restart rejoins
// by itself. A nil log discards messages.
func StartAgent(coordURL, id, selfURL string, slots int, interval time.Duration, log *slog.Logger) *Agent {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if log == nil {
		log = obs.NewLogger(io.Discard, false)
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		coordURL: coordURL,
		workerID: id,
		selfURL:  selfURL,
		slots:    slots,
		interval: interval,
		log:      log,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	go a.loop()
	return a
}

// Stop terminates the membership loop, abandoning any request in
// flight; extra calls are no-ops. The coordinator notices the silence
// via its heartbeat timeout; there is no explicit deregister (a crash
// would not send one either, so the timeout path must work anyway).
func (a *Agent) Stop() {
	a.cancel()
	<-a.done
}

func (a *Agent) loop() {
	defer close(a.done)
	registered := false
	for {
		var err error
		if !registered {
			if err = a.register(); err == nil {
				registered = true
			}
		} else if err = a.heartbeat(); err != nil {
			// Any failure demotes to re-registration: a 404 means a
			// restarted coordinator, a transport error means we cannot
			// know what the coordinator still remembers.
			registered = false
		}
		if err != nil {
			a.log.Warn("cluster agent", "worker", a.workerID, "err", err.Error())
		}
		select {
		case <-a.ctx.Done():
			return
		case <-time.After(a.interval):
		}
	}
}

func (a *Agent) register() error {
	return a.post("/cluster/v1/register", RegisterRequest{Worker: a.workerID, URL: a.selfURL, Slots: a.slots})
}

func (a *Agent) heartbeat() error {
	return a.post("/cluster/v1/heartbeat", HeartbeatRequest{Worker: a.workerID})
}

func (a *Agent) post(path string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(a.ctx, http.MethodPost, a.coordURL+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}
