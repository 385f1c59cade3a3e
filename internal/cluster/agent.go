package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Agent is the worker-side membership loop: it registers an mtserve
// instance with a coordinator and heartbeats until stopped. It is
// deliberately dumb — all scheduling intelligence lives on the
// coordinator; the agent only keeps the worker's liveness fresh and
// re-registers when the coordinator has forgotten it (a coordinator
// restart answers heartbeats with 404).
type Agent struct {
	coordURL string
	workerID string
	selfURL  string
	interval time.Duration
	log      *slog.Logger

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartAgent registers worker `id`, advertised at selfURL, with the
// coordinator at coordURL and heartbeats every interval (default 500ms).
// Registration failures are retried forever — a worker that outlives a
// coordinator restart rejoins by itself. A nil log discards messages.
func StartAgent(coordURL, id, selfURL string, interval time.Duration, log *slog.Logger) *Agent {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if log == nil {
		log = obs.NewLogger(io.Discard, false)
	}
	a := &Agent{
		coordURL: coordURL,
		workerID: id,
		selfURL:  selfURL,
		interval: interval,
		log:      log,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go a.loop()
	return a
}

// Stop terminates the membership loop; extra calls are no-ops. The
// coordinator notices the silence via its heartbeat timeout; there is no
// explicit deregister (a crash would not send one either, so the timeout
// path must work anyway).
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
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
		case <-a.stop:
			return
		case <-time.After(a.interval):
		}
	}
}

func (a *Agent) register() error {
	return a.post("/cluster/v1/register", RegisterRequest{Worker: a.workerID, URL: a.selfURL})
}

func (a *Agent) heartbeat() error {
	return a.post("/cluster/v1/heartbeat", HeartbeatRequest{Worker: a.workerID})
}

func (a *Agent) post(path string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(a.coordURL+path, "application/json", bytes.NewReader(b))
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
