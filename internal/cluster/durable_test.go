package cluster

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestClusterStoreRestoresResubmittedSweep: a sweep recorded in one
// coordinator life is restored entirely from the durable store in the
// next — no cell goes to a worker, every result byte-identical.
func TestClusterStoreRestoresResubmittedSweep(t *testing.T) {
	dir := t.TempDir()
	want, cells := groundTruth(t)

	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts1 := testCoordOptions()
	opts1.Store = st1
	tc1 := startCoordinator(t, opts1)
	tc1.addWorker("w0", serve.Options{Workers: 2})
	tc1.waitLive(1)
	first := runSweep(t, tc1.client())
	assertResults(t, first, cells, want)
	for _, w := range tc1.workers {
		w.kill()
	}
	tc1.coord.Drain()
	tc1.ts.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh coordinator and a fresh worker whose caches are
	// cold, same store directory. The worker must never run a cell.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	opts2 := testCoordOptions()
	opts2.Store = st2
	tc2 := startCoordinator(t, opts2)
	var ran atomic.Int64
	tc2.addWorker("w1", serve.Options{Workers: 2, BeforeCell: func() { ran.Add(1) }})
	tc2.waitLive(1)
	second := runSweep(t, tc2.client())
	assertResults(t, second, cells, want)

	for i, r := range second.Results {
		if !r.Cached {
			t.Errorf("cell %d not marked cached after store restore", i)
		}
	}
	if got := tc2.coord.metrics.cellsFromStore.Value(); got != int64(len(cells)) {
		t.Errorf("cells_from_store = %d, want %d", got, len(cells))
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("second life ran %d cells on the worker; want 0 (fully restored)", got)
	}
}

// TestStoredCellResultEnvelope: the coordinator's cell records travel in
// serve's stored-cell envelope, and a record that is skewed in version,
// filed under another address, of another cell, or malformed reads as a
// miss.
func TestStoredCellResultEnvelope(t *testing.T) {
	want, cells := groundTruth(t)
	c := cells[0]
	params := serve.Params{Scale: testScale, Seed: testSeed}
	shard := CellShardKey(params, c.App, c.Alg, c.Procs, false)
	cell := cellIdent{shard: shard, app: c.App, alg: c.Alg, procs: c.Procs}
	cr := serve.CellResult{
		App: c.App, Algorithm: c.Alg, Procs: c.Procs,
		Key: shard.String(), Result: want[c],
	}

	payload, err := serve.EncodeStoredCell(shard.String(), cr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStoredCell(cell, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != c.App || got.Result == nil {
		t.Fatalf("round trip lost the cell: %+v", got)
	}

	bad := cell
	bad.procs = c.Procs + 1
	if _, err := decodeStoredCell(bad, payload); err == nil {
		t.Fatal("identity mismatch accepted")
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	env["v"] = json.RawMessage("2")
	skewed, _ := json.Marshal(env)
	if _, err := decodeStoredCell(cell, skewed); err == nil {
		t.Fatal("version skew accepted")
	}
	other, _ := serve.EncodeStoredCell(CellShardKey(params, c.App, c.Alg, c.Procs, true).String(), cr)
	if _, err := decodeStoredCell(cell, other); err == nil {
		t.Fatal("record filed under another address accepted")
	}
	if _, err := decodeStoredCell(cell, []byte("{nope")); err == nil {
		t.Fatal("malformed payload accepted")
	}
}
