package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The per-job scheduler. Every accepted sweep gets one goroutine running
// the harvest → death-sweep → grant → steal loop until all cells are
// accounted for. All rebalancing is safe by construction: a worker never
// runs a cell the coordinator stole back (the worker-side steal only
// takes pending cells), re-execution after a death is byte-identical
// (deterministic simulator), and result recording is idempotent (first
// report wins, any second report carries the same bytes).

// leaseRef is the coordinator's record of one outstanding lease.
type leaseRef struct {
	id    string
	w     *worker
	cells []int // job cell indices, in lease-local order

	granted time.Time       // grant instant, for the grant-to-harvest histogram
	span    *obs.ActiveSpan // coordinator-side lease span (nil without telemetry)
}

// leaseDone closes the books on a lease leaving the outstanding set:
// the grant-to-final-harvest latency lands in the histogram and the
// lease span ends.
func (c *Coordinator) leaseDone(lr *leaseRef) {
	c.metrics.leaseHarvest.ObserveSince(lr.granted)
	lr.span.End()
}

// runJob drives one sweep to a terminal state.
func (c *Coordinator) runJob(j *cjob) {
	defer c.wg.Done()
	j.mu.Lock()
	j.status = serve.StatusRunning
	j.mu.Unlock()
	c.publishJob(j)

	// Warm start: cells whose results already sit in the durable store
	// complete right here; only the remainder is leased out.
	c.restoreFromStore(j)

	var outstanding []*leaseRef
	leaseSeq := 0
	for {
		if c.Draining() {
			c.retireRetriable(j, outstanding)
			return
		}
		now := time.Now()
		outstanding = c.harvest(j, outstanding, now)
		if j.finished() {
			c.finalize(j)
			return
		}
		if live := c.liveWorkerIDs(now); len(live) > 0 {
			outstanding = c.grantPending(j, outstanding, live, &leaseSeq)
			outstanding = c.stealForIdle(j, outstanding, live, now, &leaseSeq)
		}
		time.Sleep(c.opts.PollInterval)
	}
}

// harvest polls every outstanding lease, records finished cells, requeues
// the leases of dead workers, and drops completed leases. It returns the
// leases still live.
func (c *Coordinator) harvest(j *cjob, outstanding []*leaseRef, now time.Time) []*leaseRef {
	kept := outstanding[:0]
	for _, lr := range outstanding {
		if !lr.w.alive(now, c.opts.HeartbeatTimeout) {
			// Heartbeat silence or an earlier transport failure: the worker
			// may well still be computing (a partition, not a crash), but
			// its results are unreachable — requeue and let determinism
			// absorb the duplicate execution.
			c.markDead(lr.w, errors.New("heartbeat timeout"))
			c.requeueLease(j, lr)
			c.leaseDone(lr)
			continue
		}
		st, err := lr.w.client().LeaseStatus(lr.id)
		if err != nil {
			var ae *client.APIError
			if errors.As(err, &ae) {
				// The worker answered, so it is alive — but it does not
				// know the lease (a restart lost its registry). Requeue.
				c.requeueLease(j, lr)
			} else {
				c.markDead(lr.w, err)
				c.requeueLease(j, lr)
			}
			c.leaseDone(lr)
			continue
		}
		for li, cs := range st.CellState {
			if li >= len(lr.cells) {
				break
			}
			ci := lr.cells[li]
			if !j.ownedBy(ci, lr.id) {
				continue // stolen: another lease owns this cell now
			}
			switch cs.State {
			case "done":
				c.recordDone(j, lr, ci, cs)
			case "failed":
				c.recordFailed(j, lr, ci, cs)
			}
		}
		switch st.Status {
		case serve.StatusDone, serve.StatusFailed, serve.StatusRetriable, serve.StatusCanceled:
			// Terminal on the worker: anything this lease still owns (cells
			// the worker drained) goes back to pending.
			c.requeueLease(j, lr)
			c.leaseDone(lr)
		default:
			kept = append(kept, lr)
		}
	}
	return kept
}

// ownedBy reports whether cell ci is currently leased under leaseID.
func (j *cjob) ownedBy(ci int, leaseID string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.states[ci] == cLeased && j.leaseOf[ci] == leaseID
}

// recordDone stores one finished cell. Idempotent: only the first report
// mutates the job (any later duplicate carries identical bytes anyway).
func (c *Coordinator) recordDone(j *cjob, lr *leaseRef, ci int, cs serve.LeaseCellStatus) {
	j.mu.Lock()
	if j.states[ci] == cDone || j.states[ci] == cFailed {
		j.mu.Unlock()
		return
	}
	j.states[ci] = cDone
	j.leaseOf[ci] = ""
	r := &j.results[ci]
	r.Key, r.Cached, r.Result = cs.Key, cs.Cached, cs.Result
	j.completed++
	j.mu.Unlock()

	c.metrics.cellsCompleted.Inc()
	c.metrics.pendingCells.Add(-1)
	lr.w.metrics.pending.Add(-1)
	c.publishCell(j, ci, lr.w.id, "done", cs.Key, cs.Cached, "")
	c.persistCell(j.cells[ci], j.resultOf(ci))
	if c.journal != nil {
		if err := c.journal.cellDone(j.id, ci, cs.Key); err != nil {
			// A post-crash re-execution disagreed with the journaled result
			// key: the one corruption class resubmission cannot absorb.
			// Fail the job loudly rather than return silently wrong data.
			j.mu.Lock()
			if j.errmsg == "" {
				j.errmsg = err.Error()
			}
			j.mu.Unlock()
			if c.opts.Log != nil {
				c.opts.Log.Error("journal divergence", "job", j.id, "cell", ci, "err", err.Error())
			}
		}
	}
}

// recordFailed stores one failed cell (a simulation error on a healthy
// worker — deterministic, so requeueing would just fail again).
func (c *Coordinator) recordFailed(j *cjob, lr *leaseRef, ci int, cs serve.LeaseCellStatus) {
	j.mu.Lock()
	if j.states[ci] == cDone || j.states[ci] == cFailed {
		j.mu.Unlock()
		return
	}
	j.states[ci] = cFailed
	j.leaseOf[ci] = ""
	j.results[ci].Key = cs.Key
	j.failed++
	if j.errmsg == "" {
		cell := j.cells[ci]
		j.errmsg = fmt.Sprintf("cell %s/%s/p%d: %s", cell.app, cell.alg, cell.procs, cs.Error)
	}
	j.mu.Unlock()

	c.metrics.cellsFailed.Inc()
	c.metrics.pendingCells.Add(-1)
	lr.w.metrics.pending.Add(-1)
	c.publishCell(j, ci, lr.w.id, "failed", cs.Key, false, cs.Error)
}

// requeueLease returns every cell a lease still owns to pending.
func (c *Coordinator) requeueLease(j *cjob, lr *leaseRef) {
	n := 0
	j.mu.Lock()
	for _, ci := range lr.cells {
		if j.states[ci] == cLeased && j.leaseOf[ci] == lr.id {
			j.states[ci] = cPending
			j.leaseOf[ci] = ""
			n++
		}
	}
	j.mu.Unlock()
	if n > 0 {
		c.metrics.cellsRequeued.Add(int64(n))
		lr.w.metrics.requeues.Add(int64(n))
		lr.w.metrics.pending.Add(-int64(n))
		if c.spans != nil && j.trace.Valid() {
			c.spans.AddEvent(j.trace, coordService, "requeue",
				fmt.Sprintf("%d cells off %s", n, lr.w.id))
		}
		if c.opts.Log != nil {
			c.opts.Log.Warn("lease requeued", "job", j.id, "lease", lr.id, "worker", lr.w.id, "cells", n)
		}
	}
}

// grantPending routes every pending cell to its rendezvous-preferred live
// worker and grants leases in LeaseChunk batches.
func (c *Coordinator) grantPending(j *cjob, outstanding []*leaseRef, live []string, leaseSeq *int) []*leaseRef {
	pending := j.pendingIndices()
	if len(pending) == 0 {
		return outstanding
	}
	byWorker := make(map[string][]int)
	for _, ci := range pending {
		wid := pickWorker(j.cells[ci].shard, live)
		byWorker[wid] = append(byWorker[wid], ci)
	}
	wids := make([]string, 0, len(byWorker))
	for wid := range byWorker {
		wids = append(wids, wid)
	}
	sort.Strings(wids)
	for _, wid := range wids {
		w := c.workerByID(wid)
		if w == nil {
			continue
		}
		cells := byWorker[wid]
		for len(cells) > 0 {
			n := min(c.opts.LeaseChunk, len(cells))
			lr := c.grantLease(j, w, cells[:n], leaseSeq)
			if lr == nil {
				break // refused or dead; the rest stays pending for next tick
			}
			cells = cells[n:]
			outstanding = append(outstanding, lr)
		}
	}
	return outstanding
}

// grantLease grants one lease of the given job cells to a worker and
// marks them leased. Returns nil if the worker refused (queue pressure —
// retried next tick) or failed at the transport (declared dead).
func (c *Coordinator) grantLease(j *cjob, w *worker, cells []int, leaseSeq *int) *leaseRef {
	*leaseSeq++
	leaseID := fmt.Sprintf("%s-%d", j.id, *leaseSeq)
	req := &serve.LeaseRequest{
		Lease:    leaseID,
		Params:   &j.params,
		Infinite: j.infinite,
		Cells:    make([]serve.LeaseCell, len(cells)),
	}
	for i, ci := range cells {
		cell := j.cells[ci]
		req.Cells[i] = serve.LeaseCell{App: cell.app, Algorithm: cell.alg, Procs: cell.procs}
	}
	var sp *obs.ActiveSpan
	if c.spans != nil && j.trace.Valid() {
		// The worker parents its lease span under this one, so the grant
		// shows as a coordinator interval with the worker's work inside.
		sp = c.spans.Start(j.trace, coordService, "lease "+w.id)
		req.Trace = sp.Context().HeaderValue()
	}
	if _, err := w.client().Lease(req); err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Retriable {
			return nil // queue full / draining: back off one tick
		}
		c.markDead(w, err)
		return nil
	}
	granted := append([]int(nil), cells...)
	j.mu.Lock()
	for _, ci := range granted {
		j.states[ci] = cLeased
		j.leaseOf[ci] = leaseID
	}
	j.mu.Unlock()
	c.metrics.leasesGranted.Inc()
	w.metrics.pending.Add(int64(len(granted)))
	return &leaseRef{id: leaseID, w: w, cells: granted, granted: time.Now(), span: sp}
}

// owned counts the cells a lease still owns.
func (j *cjob) owned(lr *leaseRef) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, ci := range lr.cells {
		if j.states[ci] == cLeased && j.leaseOf[ci] == lr.id {
			n++
		}
	}
	return n
}

// stealForIdle lets every idle live worker take half of the biggest
// straggler lease's remaining tail. The stolen cells are granted straight
// to the idle worker — rendezvous routing would hand them right back to
// the straggler.
func (c *Coordinator) stealForIdle(j *cjob, outstanding []*leaseRef, live []string, now time.Time, leaseSeq *int) []*leaseRef {
	busy := make(map[string]int)
	for _, lr := range outstanding {
		busy[lr.w.id] += j.owned(lr)
	}
	for _, wid := range live {
		if busy[wid] > 0 {
			continue
		}
		idle := c.workerByID(wid)
		if idle == nil {
			continue
		}
		// Victim: the live lease with the most remaining cells, ties toward
		// the smaller lease ID for determinism.
		var victim *leaseRef
		vRem := 0
		for _, lr := range outstanding {
			if lr.w.id == wid || !lr.w.alive(now, c.opts.HeartbeatTimeout) {
				continue
			}
			r := j.owned(lr)
			if r < c.opts.StealMin {
				continue
			}
			if r > vRem || (r == vRem && victim != nil && lr.id < victim.id) {
				victim, vRem = lr, r
			}
		}
		if victim == nil {
			continue
		}
		resp, err := victim.w.client().Steal(victim.id, (vRem+1)/2)
		if err != nil {
			var ae *client.APIError
			if !errors.As(err, &ae) {
				c.markDead(victim.w, err)
			}
			continue // harvest handles requeueing on the next tick
		}
		moved := make([]int, 0, len(resp.Stolen))
		j.mu.Lock()
		for _, si := range resp.Stolen {
			if si < 0 || si >= len(victim.cells) {
				continue
			}
			ci := victim.cells[si]
			if j.states[ci] == cLeased && j.leaseOf[ci] == victim.id {
				j.states[ci] = cPending
				j.leaseOf[ci] = ""
				moved = append(moved, ci)
			}
		}
		j.mu.Unlock()
		if len(moved) == 0 {
			continue
		}
		c.metrics.cellsStolen.Add(int64(len(moved)))
		victim.w.metrics.steals.Add(int64(len(moved)))
		victim.w.metrics.pending.Add(-int64(len(moved)))
		if c.spans != nil && j.trace.Valid() {
			c.spans.AddEvent(j.trace, coordService, "steal",
				fmt.Sprintf("%d cells %s -> %s", len(moved), victim.w.id, wid))
		}
		if c.opts.Log != nil {
			c.opts.Log.Info("cells stolen", "job", j.id, "from", victim.w.id, "to", wid, "cells", len(moved))
		}
		if lr := c.grantLease(j, idle, moved, leaseSeq); lr != nil {
			outstanding = append(outstanding, lr)
			busy[wid] += len(moved)
		}
	}
	return outstanding
}

// finalize moves a fully accounted job to done or failed.
func (c *Coordinator) finalize(j *cjob) {
	j.mu.Lock()
	if j.failed > 0 || j.errmsg != "" {
		j.status = serve.StatusFailed
	} else {
		j.status = serve.StatusDone
	}
	status := j.status
	j.mu.Unlock()
	j.span.SetNote(status)
	j.finish()
	c.publishJob(j)
	c.notifyJob(j, j.snapshot())

	if status == serve.StatusDone {
		c.metrics.jobsCompleted.Inc()
	} else {
		c.metrics.jobsFailed.Inc()
	}
	if c.journal != nil {
		// Failed jobs are journaled done too: the failure is deterministic,
		// so replaying it as retriable would only fail again.
		if err := c.journal.jobDone(j.id, status); err != nil && c.opts.Log != nil {
			c.opts.Log.Warn("journal write failed", "job", j.id, "err", err.Error())
		}
	}
	if c.opts.Log != nil {
		c.opts.Log.Info("job finished", "job", j.id, "status", status)
	}
}

// retireRetriable hands an interrupted job back as retriable during
// drain. Its content-addressed ID makes resubmission idempotent; no
// journal completion is written, so a crashed-and-restarted coordinator
// reports it retriable too.
func (c *Coordinator) retireRetriable(j *cjob, outstanding []*leaseRef) {
	for _, lr := range outstanding {
		if n := j.owned(lr); n > 0 {
			lr.w.metrics.pending.Add(-int64(n))
		}
	}
	j.mu.Lock()
	remaining := len(j.cells) - j.completed - j.failed
	j.status = serve.StatusRetriable
	j.mu.Unlock()
	j.finish()
	c.publishJob(j)
	c.notifyJob(j, j.snapshot())
	c.metrics.jobsRetriable.Inc()
	c.metrics.pendingCells.Add(-int64(remaining))
	if c.opts.Log != nil {
		c.opts.Log.Info("job retired retriable", "job", j.id, "remaining", remaining)
	}
}
