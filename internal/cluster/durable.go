package cluster

// The coordinator's durable tier and crash recovery, both on the one
// append-only store:
//
//   - Every accepted sweep leaves a job record, flushed before
//     SubmitSweep returns. A coordinator restarted on the directory —
//     after a drain or a kill -9 — answers "retriable" for it, so a
//     polling client resubmits the identical content-addressed sweep,
//     the same recovery path a graceful drain uses.
//   - Recorded cell results persist keyed by their shard address, in
//     serve's stored-cell envelope with the CellResult as payload. Each
//     is in its segment file when the store's Put returns, and the store
//     is fsynced before a job shows done, so every cell of a job a
//     client sees as done is on disk. A resubmitted sweep restores those
//     cells before any goes to a worker.
//   - A stored cell is the divergence tripwire: a re-execution whose
//     result key disagrees with the stored record fails the job loudly.

import (
	"encoding/json"
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

// saveJobRecord puts the job record of sweep id and fsyncs it to disk.
// A failed write is logged, never fatal: the sweep runs either way, and
// only its crash recovery is lost.
func (c *Coordinator) saveJobRecord(id string, cells int) {
	st := c.opts.Store
	if st == nil {
		return
	}
	payload, err := json.Marshal(jobRecord{V: jobRecordVersion, Job: id, Cells: cells})
	if err == nil {
		err = st.Put(jobRecordKey(id), payload)
	}
	if err == nil {
		err = st.Flush()
	}
	if err != nil {
		c.opts.Log.Warn("job record write failed", "job", id, "err", err.Error())
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

// flushStore fsyncs every cell result put so far. Failures are the
// store's to count.
func (c *Coordinator) flushStore() {
	if c.opts.Store == nil {
		return
	}
	if err := c.opts.Store.Flush(); err != nil {
		c.opts.Log.Warn("store flush failed", "err", err.Error())
	}
}

// persistCell writes one recorded result after the job's accounting,
// and is the divergence tripwire: when the cell's shard address already
// holds a result with a different result key, two executions of the
// cell disagreed — the one corruption class resubmission cannot absorb
// — so the job fails loudly and the stored record stands. Store
// failures are the store's to count; the coordinator never blocks a job
// on persistence (re-execution is always correct).
func (c *Coordinator) persistCell(j *serve.Job, cell cellIdent, o serve.CellOutcome) {
	st := c.opts.Store
	if st == nil || o.Result == nil {
		return
	}
	if payload, ok := st.Get(store.Key(cell.shard)); ok {
		// The store never overwrites a record; only check it.
		if prev, err := decodeStoredCell(cell, payload); err == nil && prev.Key != o.Key {
			err := fmt.Errorf("divergence: cell %s re-executed to key %s, store holds %s", cell.label(), o.Key, prev.Key)
			j.Fail(err)
			c.opts.Log.Error("store divergence", "job", j.ID(), "cell", cell.label(), "err", err.Error())
		}
		return
	}
	cr := serve.CellResult{App: cell.App, Algorithm: cell.Algorithm, Procs: cell.Procs, Key: o.Key, Cached: o.Cached, Result: o.Result}
	payload, err := serve.EncodeStoredCell(cell.shard.String(), cr)
	if err != nil {
		return
	}
	if err := st.Put(store.Key(cell.shard), payload); err != nil {
		c.opts.Log.Warn("store put refused", "key", cell.shard.String(), "err", err.Error())
	}
}

// decodeStoredCell unwraps a store payload for cell through serve's
// envelope (version and address identity) and checks the cell
// coordinates. Any mismatch means the record is unusable for this cell —
// a miss, not corruption (the store's CRC layer already quarantined
// anything physically damaged).
func decodeStoredCell(cell cellIdent, payload []byte) (serve.CellResult, error) {
	var cr serve.CellResult
	if err := serve.DecodeStoredCell(cell.shard.String(), payload, &cr); err != nil {
		return serve.CellResult{}, err
	}
	if cr.App != cell.App || cr.Algorithm != cell.Algorithm || cr.Procs != cell.Procs {
		return serve.CellResult{}, fmt.Errorf("stored cell is %s/%s/p%d, want %s",
			cr.App, cr.Algorithm, cr.Procs, cell.label())
	}
	if cr.Result == nil {
		return serve.CellResult{}, fmt.Errorf("stored cell has no result")
	}
	return cr, nil
}

// restoreFromStore completes every cell of a fresh job whose result is
// already on disk, before any goes to a worker. Restored cells are
// recorded like a worker's reply, from worker "store".
func (c *Coordinator) restoreFromStore(j *serve.Job, cells []cellIdent) {
	if c.opts.Store == nil {
		return
	}
	restored := 0
	for ci, cell := range cells {
		payload, ok := c.opts.Store.Get(store.Key(cell.shard))
		if !ok {
			continue
		}
		cr, err := decodeStoredCell(cell, payload)
		if err != nil {
			c.opts.Log.Warn("store record unusable, re-executing",
				"job", j.ID(), "cell", ci, "err", err.Error())
			continue
		}
		// Cached: served from the durable tier, not simulated.
		if c.record(j, ci, "store", serve.CellOutcome{Key: cr.Key, Cached: true, Result: cr.Result}) {
			c.metrics.cellsFromStore.Inc()
			restored++
		}
	}
	if restored > 0 {
		c.opts.Log.Info("cells restored from store", "job", j.ID(), "cells", restored)
	}
}
