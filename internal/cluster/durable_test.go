package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/webhook"
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

// TestClusterWebhookDeliveredOnFinalize: the coordinator announces a
// sweep's terminal state exactly once, with the same delivery identity a
// worker would use.
func TestClusterWebhookDeliveredOnFinalize(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	var ids []string
	rc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		ids = append(ids, r.Header.Get(webhook.DeliveryHeader))
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer rc.Close()

	wh, err := webhook.New(webhook.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	opts := testCoordOptions()
	opts.Webhooks = wh
	tc := startCoordinator(t, opts)
	tc.addWorker("w0", serve.Options{Workers: 2})
	tc.waitLive(1)

	apps, algs, procs := testDims()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	cl := tc.client()
	acc, err := cl.Sweep(&serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
		WebhookURL: rc.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	if !wh.Flush(5 * time.Second) {
		t.Fatal("webhook delivery did not complete")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 {
		t.Fatalf("receiver saw %d deliveries, want 1: %q", len(bodies), bodies)
	}
	var ev serve.JobEvent
	if err := json.Unmarshal([]byte(bodies[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Job != st.Job || ev.Status != serve.StatusDone || ev.Completed != st.Cells {
		t.Fatalf("webhook body = %+v, want terminal snapshot of %s", ev, st.Job)
	}
	if want := serve.WebhookDeliveryID(st.Job, rc.URL, serve.StatusDone); ids[0] != want {
		t.Fatalf("delivery header = %q, want %q", ids[0], want)
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
