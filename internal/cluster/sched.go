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
// the same bytes).

// refusalBackoff is the least time a worker's slot stays taken after it
// refused a cell with a 429 or 503, so the refused cell moves on to the
// next candidate instead of straight back to the refusing worker.
const refusalBackoff = 10 * time.Millisecond

// runJob drives one sweep to a terminal state.
func (c *Coordinator) runJob(j *cjob) {
	defer c.wg.Done()
	j.mu.Lock()
	j.status = serve.StatusRunning
	j.mu.Unlock()
	c.publishJob(j)

	// Warm start: cells whose results already sit in the durable store
	// complete right here; only the remainder goes to workers.
	c.restoreFromStore(j)

	var calls sync.WaitGroup
	for {
		// Take the wake channel before looking: any change after this
		// point closes it, so none is missed.
		wake := c.woken()
		if j.finished() || c.Draining() {
			break
		}
		for _, ci := range j.pendingIndices() {
			w := c.acquire(j, ci)
			if w == nil {
				break // every live worker is full
			}
			calls.Add(1)
			go func() {
				defer calls.Done()
				c.runCell(j, ci, w)
			}()
		}
		<-wake
	}
	calls.Wait()
	if !j.finished() {
		c.retireRetriable(j)
		return
	}
	// Every recorded cell is already in its segment file; before
	// finalize can show the job done, fsync them against power loss.
	c.flushStore()
	c.finalize(j)
}

// acquire takes a slot for cell ci on the first live worker in the
// cell's rendezvous order that has one free, and marks the cell
// running. It returns nil when every live worker is full.
func (c *Coordinator) acquire(j *cjob, ci int) *worker {
	for _, w := range c.candidates(j.cells[ci].shard) {
		if w.take() {
			w.metrics.pending.Add(1)
			j.mu.Lock()
			j.states[ci] = cRunning
			j.mu.Unlock()
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
func (c *Coordinator) runCell(j *cjob, ci int, w *worker) {
	cell := j.cells[ci]
	cl, ctx := w.client()
	// The worker parents its simulate span under this one, so the call
	// shows as a coordinator interval with the worker's work inside.
	sp := c.spans.Start(j.trace, coordService, fmt.Sprintf("cell %s/%s/p%d", cell.app, cell.alg, cell.procs))
	sp.SetNote("worker " + w.id)
	resp, err := cl.SimulateTrace(ctx, &serve.SimulateRequest{
		Params: &j.params, App: cell.app, Algorithm: cell.alg, Procs: cell.procs, Infinite: j.infinite,
	}, sp.Context().HeaderValue())
	sp.End()

	var ae *client.APIError
	switch {
	case err == nil:
		c.recordDone(j, ci, w, resp)
		c.release(w)
	case errors.As(err, &ae) && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable):
		c.requeue(j, ci, w)
		time.AfterFunc(max(ae.RetryAfter, refusalBackoff), func() {
			c.release(w)
			c.notify()
		})
	case ae != nil:
		c.failCell(j, ci, w.id, "", ae.Message)
		c.release(w)
	default:
		if ctx.Err() == nil {
			c.markDead(w, err)
		}
		if !c.Draining() {
			c.requeue(j, ci, w)
		}
		c.release(w)
	}
	c.notify()
}

// recordDone stores one finished cell. Idempotent: only the first report
// mutates the job (any later duplicate carries identical bytes anyway).
func (c *Coordinator) recordDone(j *cjob, ci int, w *worker, resp *serve.SimulateResponse) {
	j.mu.Lock()
	if j.states[ci] == cDone || j.states[ci] == cFailed {
		j.mu.Unlock()
		return
	}
	j.states[ci] = cDone
	r := &j.results[ci]
	r.Key, r.Cached, r.Result = resp.Key, resp.Cached, resp.Result
	j.completed++
	j.mu.Unlock()

	c.metrics.cellsCompleted.Inc()
	c.metrics.pendingCells.Add(-1)
	c.publishCell(j, ci, w.id, "done", resp.Key, resp.Cached, "")
	c.persistCell(j, ci)
}

// failCell marks one cell failed with the worker's message. Idempotent
// like recordDone; reports whether this call failed the cell.
func (c *Coordinator) failCell(j *cjob, ci int, wid, key, msg string) bool {
	j.mu.Lock()
	if j.states[ci] == cDone || j.states[ci] == cFailed {
		j.mu.Unlock()
		return false
	}
	j.states[ci] = cFailed
	j.results[ci].Key = key
	j.failed++
	if j.errmsg == "" {
		cell := j.cells[ci]
		j.errmsg = fmt.Sprintf("cell %s/%s/p%d: %s", cell.app, cell.alg, cell.procs, msg)
	}
	j.mu.Unlock()

	c.metrics.cellsFailed.Inc()
	c.metrics.pendingCells.Add(-1)
	c.publishCell(j, ci, wid, "failed", key, false, msg)
	return true
}

// requeue returns cell ci, which w did not run, to pending.
func (c *Coordinator) requeue(j *cjob, ci int, w *worker) {
	j.mu.Lock()
	j.states[ci] = cPending
	j.mu.Unlock()
	c.metrics.cellsRequeued.Inc()
	w.metrics.requeues.Inc()
	cell := j.cells[ci]
	c.spans.AddEvent(j.trace, coordService, "requeue",
		fmt.Sprintf("%s/%s/p%d off %s", cell.app, cell.alg, cell.procs, w.id))
	c.opts.Log.Warn("cell requeued", "job", j.id, "cell", ci, "worker", w.id)
}

// finalize moves a fully accounted job to done or failed, counting the
// outcome before the status becomes visible.
func (c *Coordinator) finalize(j *cjob) {
	status := serve.StatusDone
	j.mu.Lock()
	if j.failed > 0 || j.errmsg != "" {
		status = serve.StatusFailed
	}
	j.mu.Unlock()
	if status == serve.StatusDone {
		c.metrics.jobsCompleted.Inc()
	} else {
		c.metrics.jobsFailed.Inc()
	}
	j.span.SetNote(status)
	j.settle(status)
	c.publishJob(j)
	c.opts.Log.Info("job finished", "job", j.id, "status", status)
}

// retireRetriable hands an interrupted job back as retriable during
// drain. Its content-addressed ID makes resubmission idempotent, and its
// job record makes a restarted coordinator report it retriable too.
func (c *Coordinator) retireRetriable(j *cjob) {
	j.mu.Lock()
	remaining := len(j.cells) - j.completed - j.failed
	j.mu.Unlock()
	c.metrics.jobsRetriable.Inc()
	c.metrics.pendingCells.Add(-int64(remaining))
	j.settle(serve.StatusRetriable)
	c.publishJob(j)
	c.opts.Log.Info("job retired retriable", "job", j.id, "remaining", remaining)
}
