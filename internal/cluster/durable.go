package cluster

// The coordinator's durable tier: harvested cell results persist in an
// append-only store keyed by their shard address, and a resubmitted
// (or crash-recovered) sweep restores those cells from disk before any
// lease goes out — the cluster warm-starts without re-simulating.
// Terminal job states are announced through the retrying webhook
// dispatcher by serve.Durable, the same code and delivery contract as a
// bare worker.

import (
	"encoding/json"
	"fmt"

	"repro/internal/serve"
	"repro/internal/store"
)

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

// persistCell writes one harvested result behind the job's accounting.
// Failures are the store's to count; the coordinator never blocks or
// errors a job on persistence (re-execution is always correct).
func (c *Coordinator) persistCell(cell cellIdent, cr serve.CellResult) {
	if c.opts.Store == nil || cr.Result == nil {
		return
	}
	payload, err := json.Marshal(storedCellResult{
		V: storedCellResultVersion, Key: cell.shard.String(), Cell: cr,
	})
	if err != nil {
		return
	}
	if err := c.opts.Store.Put(store.Key(cell.shard), payload); err != nil && c.opts.Log != nil {
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
// recordDone contract: idempotent accounting, a published cell event
// (worker "store"), and the journal cross-check against prior runs.
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
			if c.opts.Log != nil {
				c.opts.Log.Warn("store record unusable, re-executing",
					"job", j.id, "cell", ci, "err", err.Error())
			}
			continue
		}
		cr.Cached = true // served from the durable tier, not simulated
		if c.recordRestored(j, ci, cr) {
			restored++
		}
	}
	if restored > 0 {
		if c.opts.Log != nil {
			c.opts.Log.Info("cells restored from store", "job", j.id, "cells", restored)
		}
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
	if c.journal != nil {
		if err := c.journal.cellDone(j.id, ci, cr.Key); err != nil {
			// The stored result disagrees with the journaled key from a
			// prior run: same divergence contract as a harvested cell —
			// fail loudly rather than return silently wrong data.
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
	return true
}
