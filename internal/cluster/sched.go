package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The per-job scheduler. Every accepted sweep gets one goroutine that
// keeps every free worker slot busy with its pending cells: each cell is
// one POST /v1/simulate to the first live worker, in the cell's
// rendezvous order, that has a free slot, and the result comes back in
// the reply. A worker never holds more of the coordinator's cells than
// its pool size, so no cell waits in a straggler's queue while another
// worker idles. Every rebalancing is safe by construction: re-execution
// after a death is byte-identical (deterministic simulator), and result
// recording is idempotent (first report wins, any second report carries
// the same bytes). The job itself — its accounting, status and events —
// is serve's (serve.Job); the scheduler only dispatches.

// refusalBackoff is the least time a worker's slot stays taken after it
// refused a cell with a 429 or 503, so the refused cell moves on to the
// next candidate instead of straight back to the refusing worker.
const refusalBackoff = 10 * time.Millisecond

// runJob drives one sweep to a terminal state.
func (c *Coordinator) runJob(j *serve.Job) {
	defer c.wg.Done()
	cells := cellsOf(j)

	// Warm start: cells whose results already sit in the durable store
	// complete right here; only the remainder goes to workers.
	c.restoreFromStore(j, cells)

	var calls sync.WaitGroup
	for {
		// Take the wake channel before looking: any change after this
		// point closes it, so none is missed.
		wake := c.woken()
		pending, finished := j.Pending()
		if finished || c.Draining() {
			break
		}
		for _, ci := range pending {
			w := c.acquire(j, ci, cells[ci])
			if w == nil {
				break // every live worker is full
			}
			calls.Add(1)
			go func() {
				defer calls.Done()
				c.runCell(j, ci, cells[ci], w)
			}()
		}
		<-wake
	}
	calls.Wait()
	if rest, _ := j.Pending(); len(rest) > 0 {
		// Drain interrupted the job: hand it back retriable. Its
		// content-addressed ID makes resubmission idempotent, and its
		// job record makes a restarted coordinator report it retriable
		// too.
		j.Drain(rest)
		c.metrics.pendingCells.Add(-int64(len(rest)))
	} else {
		// Every recorded cell is already in its segment file; before
		// the job can show done, fsync them against power loss.
		c.flushStore()
	}
	status := j.Settle(c.metrics.jobs)
	j.Publish(c.bus)
	c.opts.Log.Info("job settled", "job", j.ID(), "status", status)
}

// acquire takes a slot for cell ci on the first live worker in the
// cell's rendezvous order that has one free, and marks the cell
// running. It returns nil when every live worker is full.
func (c *Coordinator) acquire(j *serve.Job, ci int, cell cellIdent) *worker {
	for _, w := range c.candidates(cell.shard) {
		if w.take() {
			w.metrics.pending.Add(1)
			if j.Begin(ci) {
				j.Publish(c.bus)
			}
			return w
		}
	}
	return nil
}

// release frees one of w's slots.
func (c *Coordinator) release(w *worker) {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
	w.metrics.pending.Add(-1)
}

// runCell sends cell ci to w, which holds a slot for it, as one
// /v1/simulate call, and books the reply:
//
//   - a result is recorded;
//   - a 429 or 503 sends the cell back to pending, and w's slot stays
//     taken for the refusal's backoff, so the cell goes to the next
//     candidate;
//   - any other answer (400, 422, a 504 step-budget abort) fails the
//     cell with the worker's message: the worker is alive, it answered;
//   - a transport error declares w dead and sends the cell back to
//     pending. An error on a call whose context was already canceled —
//     w declared dead by heartbeat silence, replaced by a new
//     incarnation, or the coordinator draining — declares nothing new.
func (c *Coordinator) runCell(j *serve.Job, ci int, cell cellIdent, w *worker) {
	cl, ctx := w.client()
	// The worker parents its simulate span under this one, so the call
	// shows as a coordinator interval with the worker's work inside.
	sp := c.spans.Start(j.Trace(), coordService, "cell "+cell.label())
	sp.SetNote("worker " + w.id)
	resp, err := cl.SimulateTrace(ctx, cell.SimulateRequest, sp.Context().HeaderValue())
	sp.End()

	var ae *client.APIError
	switch {
	case err == nil:
		o := serve.CellOutcome{Key: resp.Key, Cached: resp.Cached, Result: resp.Result}
		if c.record(j, ci, w.id, o) {
			c.persistCell(j, cell, o)
		}
		c.release(w)
	case errors.As(err, &ae) && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable):
		c.requeue(j, ci, cell, w)
		time.AfterFunc(max(ae.RetryAfter, refusalBackoff), func() {
			c.release(w)
			c.notify()
		})
	case ae != nil:
		j.Fail(fmt.Errorf("cell %s: %s", cell.label(), ae.Message))
		c.record(j, ci, w.id, serve.CellOutcome{Err: errors.New(ae.Message)})
		c.release(w)
	default:
		if ctx.Err() == nil {
			c.markDead(w, err)
		}
		if c.Draining() {
			j.Requeue(ci) // for the drain to hand back
		} else {
			c.requeue(j, ci, cell, w)
		}
		c.release(w)
	}
	c.notify()
}

// record books one cell outcome reported by worker ("store" for a cell
// restored from the durable store), and reports whether it was the
// cell's first report, the one that counts.
func (c *Coordinator) record(j *serve.Job, ci int, worker string, o serve.CellOutcome) bool {
	if recorded, _ := j.Finish(ci, o); !recorded {
		return false
	}
	if o.Err == nil {
		c.metrics.cellsCompleted.Inc()
	} else {
		c.metrics.cellsFailed.Inc()
	}
	c.metrics.pendingCells.Add(-1)
	j.PublishCell(c.bus, ci, worker)
	return true
}

// requeue returns cell ci, which w did not run, to pending.
func (c *Coordinator) requeue(j *serve.Job, ci int, cell cellIdent, w *worker) {
	j.Requeue(ci)
	c.metrics.cellsRequeued.Inc()
	w.metrics.requeues.Inc()
	c.spans.AddEvent(j.Trace(), coordService, "requeue", cell.label()+" off "+w.id)
	c.opts.Log.Warn("cell requeued", "job", j.ID(), "cell", ci, "worker", w.id)
}
