package cluster

import (
	"encoding/json"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestClusterStoreRestoresResubmittedSweep: a sweep harvested in one
// coordinator life is restored entirely from the durable store in the
// next — no cell leases to a worker, every result byte-identical.
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
	// cold, same store directory. The worker must never be leased a cell.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	opts2 := testCoordOptions()
	opts2.Store = st2
	tc2 := startCoordinator(t, opts2)
	tc2.addWorker("w1", serve.Options{Workers: 2})
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
	if got := tc2.coord.metrics.leasesGranted.Value(); got != 0 {
		t.Errorf("second life granted %d leases; want 0 (fully restored)", got)
	}
}

// TestStoredCellResultEnvelope: the coordinator's store envelope rejects
// version skew, key drift, and identity mismatches as misses.
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

	payload, err := json.Marshal(storedCellResult{V: storedCellResultVersion, Key: shard.String(), Cell: cr})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStoredCellResult(cell, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != c.App || got.Result == nil {
		t.Fatalf("round trip lost the cell: %+v", got)
	}

	bad := cell
	bad.procs = c.Procs + 1
	if _, err := decodeStoredCellResult(bad, payload); err == nil {
		t.Fatal("identity mismatch accepted")
	}
	skewed, _ := json.Marshal(storedCellResult{V: storedCellResultVersion + 1, Key: shard.String(), Cell: cr})
	if _, err := decodeStoredCellResult(cell, skewed); err == nil {
		t.Fatal("version skew accepted")
	}
	if _, err := decodeStoredCellResult(cell, []byte("{nope")); err == nil {
		t.Fatal("malformed payload accepted")
	}
}
