package cluster

// The coordinator's durable tier and crash recovery, both on the one
// append-only store:
//
//   - Every accepted sweep leaves a job record, flushed before
//     SubmitSweep returns. A coordinator restarted on the directory —
//     after a drain or a kill -9 — answers "retriable" for it, so a
//     polling client resubmits the identical content-addressed sweep,
//     the same recovery path a graceful drain uses.
//   - Harvested cell results persist keyed by their shard address, and
//     the store is flushed after every harvest pass that recorded one,
//     so every cell of a job a client sees as done is on disk. A
//     resubmitted sweep restores those cells before any lease goes out.
//   - A stored cell is the divergence tripwire: a re-execution whose
//     result key disagrees with the stored record fails the job loudly.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/serve"
	"repro/internal/serve/rescache"
	"repro/internal/store"
)

// jobRecordVersion versions the coordinator's job record; another
// version reads as no record.
const jobRecordVersion = 1

// jobRecord is the store record of one accepted sweep.
type jobRecord struct {
	V     int    `json:"v"`
	Job   string `json:"job"`
	Cells int    `json:"cells"`
}

// jobRecordKey is the store address of a sweep's job record.
func jobRecordKey(id string) store.Key {
	return store.Key(rescache.SumStrings("mtcoord-job-v1", id))
}

// saveJobRecord puts j's job record and flushes it to disk. A failed or
// dropped record is logged, never fatal: the sweep runs either way, and
// only its crash recovery is lost.
func (c *Coordinator) saveJobRecord(j *cjob) {
	st := c.opts.Store
	if st == nil {
		return
	}
	key := jobRecordKey(j.id)
	payload, err := json.Marshal(jobRecord{V: jobRecordVersion, Job: j.id, Cells: len(j.cells)})
	if err == nil {
		err = st.Put(key, payload)
	}
	if err == nil {
		err = st.Flush()
	}
	if err == nil {
		if _, ok := st.Get(key); !ok {
			err = errors.New("record dropped by a full store queue")
		}
	}
	if err != nil {
		c.opts.Log.Warn("job record write failed", "job", j.id, "err", err.Error())
	}
}

// hasJobRecord reports whether the store holds a job record for id.
func (c *Coordinator) hasJobRecord(id string) bool {
	if c.opts.Store == nil {
		return false
	}
	payload, ok := c.opts.Store.Get(jobRecordKey(id))
	if !ok {
		return false
	}
	var rec jobRecord
	return json.Unmarshal(payload, &rec) == nil && rec.V == jobRecordVersion && rec.Job == id
}

// flushStore puts every queued cell result on disk. Failures are the
// store's to count.
func (c *Coordinator) flushStore() {
	if c.opts.Store == nil {
		return
	}
	if err := c.opts.Store.Flush(); err != nil {
		c.opts.Log.Warn("store flush failed", "err", err.Error())
	}
}

// storedCellResultVersion versions the coordinator's store envelope. A
// version mismatch is a miss (re-execute), never an error.
const storedCellResultVersion = 1

// storedCellResult is the JSON envelope of one harvested cell in the
// durable store, keyed by the cell's shard address. Key repeats the
// address inside the payload so a record can never be restored under
// the wrong cell identity.
type storedCellResult struct {
	V    int              `json:"v"`
	Key  string           `json:"key"`
	Cell serve.CellResult `json:"cell"`
}

// persistCell writes one harvested result behind the job's accounting,
// and is the divergence tripwire: when the cell's shard address already
// holds a result with a different result key, two executions of the
// cell disagreed — the one corruption class resubmission cannot absorb
// — so the job fails loudly and the stored record stands. Store
// failures are the store's to count; the coordinator never blocks a job
// on persistence (re-execution is always correct).
func (c *Coordinator) persistCell(j *cjob, ci int) {
	st := c.opts.Store
	cr := j.resultOf(ci)
	if st == nil || cr.Result == nil {
		return
	}
	cell := j.cells[ci]
	if payload, ok := st.Get(store.Key(cell.shard)); ok {
		// The store never overwrites a record; only check it.
		if prev, err := decodeStoredCellResult(cell, payload); err == nil && prev.Key != cr.Key {
			err := fmt.Errorf("divergence: cell %s/%s/p%d re-executed to key %s, store holds %s",
				cell.app, cell.alg, cell.procs, cr.Key, prev.Key)
			j.mu.Lock()
			if j.errmsg == "" {
				j.errmsg = err.Error()
			}
			j.mu.Unlock()
			c.opts.Log.Error("store divergence", "job", j.id, "cell", ci, "err", err.Error())
		}
		return
	}
	payload, err := json.Marshal(storedCellResult{
		V: storedCellResultVersion, Key: cell.shard.String(), Cell: cr,
	})
	if err != nil {
		return
	}
	if err := st.Put(store.Key(cell.shard), payload); err != nil {
		c.opts.Log.Warn("store put refused", "key", cell.shard.String(), "err", err.Error())
	}
}

// decodeStoredCellResult unwraps a store payload for cell, verifying
// version, address identity and cell coordinates. Any mismatch means
// the record is unusable for this cell — a miss, not corruption (the
// store's CRC layer already quarantined anything physically damaged).
func decodeStoredCellResult(cell cellIdent, payload []byte) (serve.CellResult, error) {
	var sc storedCellResult
	if err := json.Unmarshal(payload, &sc); err != nil {
		return serve.CellResult{}, err
	}
	if sc.V != storedCellResultVersion {
		return serve.CellResult{}, fmt.Errorf("stored cell version %d, want %d", sc.V, storedCellResultVersion)
	}
	if sc.Key != cell.shard.String() {
		return serve.CellResult{}, fmt.Errorf("stored cell key %s under address %s", sc.Key, cell.shard.String())
	}
	cr := sc.Cell
	if cr.App != cell.app || cr.Algorithm != cell.alg || cr.Procs != cell.procs {
		return serve.CellResult{}, fmt.Errorf("stored cell is %s/%s/p%d, want %s/%s/p%d",
			cr.App, cr.Algorithm, cr.Procs, cell.app, cell.alg, cell.procs)
	}
	if cr.Result == nil {
		return serve.CellResult{}, fmt.Errorf("stored cell has no result")
	}
	return cr, nil
}

// restoreFromStore completes every cell of a fresh job whose result is
// already on disk, before any lease goes out. Restored cells follow the
// recordDone contract: idempotent accounting and a published cell event
// (worker "store").
func (c *Coordinator) restoreFromStore(j *cjob) {
	if c.opts.Store == nil {
		return
	}
	restored := 0
	for ci := range j.cells {
		cell := j.cells[ci]
		payload, ok := c.opts.Store.Get(store.Key(cell.shard))
		if !ok {
			continue
		}
		cr, err := decodeStoredCellResult(cell, payload)
		if err != nil {
			c.opts.Log.Warn("store record unusable, re-executing",
				"job", j.id, "cell", ci, "err", err.Error())
			continue
		}
		cr.Cached = true // served from the durable tier, not simulated
		if c.recordRestored(j, ci, cr) {
			restored++
		}
	}
	if restored > 0 {
		c.opts.Log.Info("cells restored from store", "job", j.id, "cells", restored)
	}
}

// recordRestored books one store-restored cell, mirroring recordDone's
// idempotent accounting. Reports whether this call completed the cell.
func (c *Coordinator) recordRestored(j *cjob, ci int, cr serve.CellResult) bool {
	j.mu.Lock()
	if j.states[ci] != cPending {
		j.mu.Unlock()
		return false
	}
	j.states[ci] = cDone
	j.results[ci] = cr
	j.completed++
	j.mu.Unlock()

	c.metrics.cellsCompleted.Inc()
	c.metrics.cellsFromStore.Inc()
	c.metrics.pendingCells.Add(-1)
	c.publishCell(j, ci, "store", "done", cr.Key, true, "")
	return true
}
