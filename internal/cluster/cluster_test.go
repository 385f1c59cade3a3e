package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// ---- harness -------------------------------------------------------------

// testWorker is one in-process mtserve joined to a test cluster.
type testWorker struct {
	id    string
	srv   *serve.Server
	ts    *httptest.Server
	agent *Agent

	killed bool
}

// kill makes the worker unreachable (transport-dead) and silent
// (no heartbeats) — the crash scenario.
func (w *testWorker) kill() {
	if w.killed {
		return
	}
	w.killed = true
	w.agent.Stop()
	w.ts.Close()
	w.srv.Drain()
}

// partition stops heartbeats but leaves the HTTP server up: the worker
// keeps computing, the coordinator just cannot count on it.
func (w *testWorker) partition() {
	w.agent.Stop()
}

// testCluster is a coordinator plus N workers wired over real HTTP.
type testCluster struct {
	t     *testing.T
	coord *Coordinator
	ts    *httptest.Server

	workers []*testWorker
}

// testCoordOptions are fast-paced defaults for tests.
func testCoordOptions() Options {
	return Options{
		HeartbeatTimeout: 300 * time.Millisecond,
		PollInterval:     2 * time.Millisecond,
		LeaseChunk:       4,
	}
}

func startCoordinator(t *testing.T, opts Options) *testCluster {
	t.Helper()
	coord := New(opts)
	tc := &testCluster{t: t, coord: coord, ts: httptest.NewServer(coord.Handler())}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			w.kill()
		}
		tc.coord.Drain()
		tc.ts.Close()
	})
	return tc
}

// addWorker starts one worker and joins it to the cluster.
func (tc *testCluster) addWorker(id string, wopts serve.Options) *testWorker {
	tc.t.Helper()
	// Mirror production (cmd/mtserve): a clustered worker's spans carry
	// its worker ID, so merged traces attribute work per worker.
	if wopts.ServiceName == "" {
		wopts.ServiceName = id
	}
	srv := serve.NewServer(wopts)
	ts := httptest.NewServer(srv.Handler())
	w := &testWorker{
		id:  id,
		srv: srv,
		ts:  ts,
		agent: StartAgent(tc.ts.URL, id, ts.URL,
			50*time.Millisecond, nil),
	}
	tc.workers = append(tc.workers, w)
	return w
}

// waitLive blocks until the coordinator sees n live workers.
func (tc *testCluster) waitLive(n int) {
	tc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(tc.coord.liveWorkerIDs(time.Now())) >= n {
			return
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("cluster never reached %d live workers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startCluster brings up a coordinator with n identical workers.
func startCluster(t *testing.T, n int, wopts serve.Options) *testCluster {
	t.Helper()
	tc := startCoordinator(t, testCoordOptions())
	for i := 0; i < n; i++ {
		tc.addWorker(fmt.Sprintf("w%d", i), wopts)
	}
	tc.waitLive(n)
	return tc
}

func (tc *testCluster) client() *client.Client {
	cl := client.New(tc.ts.URL)
	cl.Policy = retry.Policy{MaxAttempts: 65, BaseDelay: 10 * time.Millisecond}
	return cl
}

// testDims is the small sweep the differential tests use: cheap
// algorithms, tiny machines, 8 cells.
func testDims() (apps, algs []string, procs []int) {
	return []string{"MP3D", "Gauss"}, []string{"LOAD-BAL", "RANDOM"}, []int{2, 4}
}

const (
	testScale = 0.1
	testSeed  = int64(7)
)

// groundTruth computes the library results for testDims.
func groundTruth(t *testing.T) (map[loadgen.Cell]*sim.Result, []loadgen.Cell) {
	t.Helper()
	apps, algs, procs := testDims()
	cells := loadgen.Mix(apps, algs, procs)
	want, err := loadgen.GroundTruth(testScale, testSeed, cells)
	if err != nil {
		t.Fatal(err)
	}
	return want, cells
}

// sweepTo submits req and waits (at most a minute) for a terminal state.
func sweepTo(t *testing.T, cl *client.Client, req *serve.SweepRequest) *serve.JobStatus {
	t.Helper()
	acc, err := cl.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runSweep submits the testDims sweep and waits it to done, failing the
// test otherwise.
func runSweep(t *testing.T, cl *client.Client) *serve.JobStatus {
	t.Helper()
	apps, algs, procs := testDims()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	st := sweepTo(t, cl, &serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
	})
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	return st
}

// assertResults checks a finished sweep against ground truth: every cell
// present exactly once (the results slice is cell-ordered, so loss or
// duplication would show as a count or identity mismatch) and its result
// deeply equal to the direct library run.
func assertResults(t *testing.T, st *serve.JobStatus, cells []loadgen.Cell, want map[loadgen.Cell]*sim.Result) {
	t.Helper()
	if len(st.Results) != len(cells) {
		t.Fatalf("sweep returned %d cells, want %d", len(st.Results), len(cells))
	}
	for i, r := range st.Results {
		c := loadgen.Cell{App: r.App, Alg: r.Algorithm, Procs: r.Procs}
		if c != cells[i] {
			t.Fatalf("result %d is cell %+v, want %+v (lost or reordered cell)", i, c, cells[i])
		}
		if !reflect.DeepEqual(r.Result, want[c]) {
			t.Errorf("cell %+v diverged from the direct library result", c)
		}
	}
}

// ---- differential tests --------------------------------------------------

// TestClusterSweepMatchesLocal: the tentpole differential — the same
// sweep through a coordinator and 4 workers must deep-equal the direct
// library results, cell for cell. The subtest is named for the engine
// label every sweep records (rescache.EngineLabel).
func TestClusterSweepMatchesLocal(t *testing.T) {
	want, cells := groundTruth(t)
	t.Run(rescache.EngineLabel, func(t *testing.T) {
		// On a store, per the clustering acceptance bar: the store's
		// per-cell divergence tripwire rides along the differential.
		opts := testCoordOptions()
		opts.Store = openTestStore(t, t.TempDir())
		tc := startCoordinator(t, opts)
		for i := 0; i < 4; i++ {
			tc.addWorker(fmt.Sprintf("w%d", i), serve.Options{Workers: 2})
		}
		tc.waitLive(4)
		st := runSweep(t, tc.client())
		assertResults(t, st, cells, want)

		snap := tc.coord.Metrics().Snapshot()
		if got := snap["coordinator_cells_completed_total"]; got != int64(len(cells)) {
			t.Errorf("coordinator recorded %d completions for %d cells", got, len(cells))
		}
		if snap["coordinator_pending_cells"] != 0 {
			t.Errorf("pending cells gauge %d after completion", snap["coordinator_pending_cells"])
		}
	})
}

// TestClusterSweepOnline: ONLINE/… cells lease out like static ones. The
// sweep ends done, deep-equals the same sweep on a single mtserve, and
// declares no worker dead.
func TestClusterSweepOnline(t *testing.T) {
	req := &serve.SweepRequest{
		Params:     &serve.Params{Scale: testScale, Seed: testSeed},
		Apps:       []string{"MP3D"},
		Algorithms: []string{"LOAD-BAL", "ONLINE/COHERENCE@i=2000,c=64"},
		Procs:      []int{2, 4},
	}
	single := serve.NewServer(serve.Options{Workers: 2})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	defer single.Drain()
	want := sweepTo(t, client.New(sts.URL), req)
	if want.Status != serve.StatusDone {
		t.Fatalf("single-server sweep ended %s: %s", want.Status, want.Error)
	}

	tc := startCluster(t, 2, serve.Options{Workers: 2})
	got := sweepTo(t, tc.client(), req)
	if got.Status != serve.StatusDone {
		t.Fatalf("cluster sweep ended %s: %s", got.Status, got.Error)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("cluster returned %d cells, single server %d", len(got.Results), len(want.Results))
	}
	for i, w := range want.Results {
		g := got.Results[i]
		if g.App != w.App || g.Algorithm != w.Algorithm || g.Procs != w.Procs || g.Key != w.Key {
			t.Errorf("cell %d: cluster %s/%s/p%d key %s, single server %s/%s/p%d key %s",
				i, g.App, g.Algorithm, g.Procs, g.Key, w.App, w.Algorithm, w.Procs, w.Key)
		}
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Errorf("cell %d (%s/p%d): cluster result diverged from the single server's", i, w.Algorithm, w.Procs)
		}
	}
	if deaths := tc.coord.Metrics().Snapshot()["coordinator_worker_deaths_total"]; deaths != 0 {
		t.Errorf("%d workers declared dead during the sweep", deaths)
	}
}

// TestClusterLeaseRefusalFailsCells: a worker that answers a lease grant
// with a non-retriable 400 is alive (it answered). The coordinator fails
// the refused cells with the worker's message, so the sweep ends failed,
// and never declares the worker dead.
func TestClusterLeaseRefusalFailsCells(t *testing.T) {
	const refusal = "lease refused by this worker"
	tc := startCoordinator(t, testCoordOptions())
	srv := serve.NewServer(serve.Options{Workers: 1})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/internal/v1/lease" {
			serve.WriteError(w, &serve.Error{Status: http.StatusBadRequest, Message: refusal})
			return
		}
		h.ServeHTTP(w, r)
	}))
	tc.workers = append(tc.workers, &testWorker{id: "w0", srv: srv, ts: ts,
		agent: StartAgent(tc.ts.URL, "w0", ts.URL, 50*time.Millisecond, nil)})
	tc.waitLive(1)

	apps, algs, procs := testDims()
	st := sweepTo(t, tc.client(), &serve.SweepRequest{
		Params: &serve.Params{Scale: testScale, Seed: testSeed},
		Apps:   apps, Algorithms: algs, Procs: procs,
	})
	if st.Status != serve.StatusFailed || !strings.Contains(st.Error, refusal) {
		t.Fatalf("sweep ended %s (%q), want failed with the worker's message %q", st.Status, st.Error, refusal)
	}
	if deaths := tc.coord.Metrics().Snapshot()["coordinator_worker_deaths_total"]; deaths != 0 {
		t.Errorf("refusing worker declared dead %d times", deaths)
	}
	if live := tc.coord.liveWorkerIDs(time.Now()); len(live) != 1 {
		t.Errorf("live workers %v after the refusals, want [w0]", live)
	}
}

// TestClusterSimulateProxyMatchesWorker: /v1/simulate through the
// coordinator — including explicit placements — returns exactly what a
// worker returns directly.
func TestClusterSimulateProxyMatchesWorker(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2})
	params := serve.Params{Scale: testScale, Seed: testSeed}
	direct := client.New(tc.workers[0].ts.URL)
	viaCoord := tc.client()

	// An explicit placement, built the way experiments -remote builds
	// them: through the library, then shipped verbatim.
	copts := core.DefaultOptions()
	copts.Params = workload.Params{Scale: testScale, Seed: testSeed}
	pl, err := core.NewSuite(copts).Place("MP3D", "SHARE-ADDR", 4)
	if err != nil {
		t.Fatal(err)
	}

	reqs := []*serve.SimulateRequest{
		{Params: &params, App: "MP3D", Algorithm: "LOAD-BAL", Procs: 4},
		{Params: &params, App: "Gauss", Algorithm: "RANDOM", Procs: 2},
		{Params: &params, App: "MP3D", Procs: 4,
			Placement: &serve.PlacementSpec{Algorithm: pl.Algorithm, Clusters: pl.Clusters}},
	}
	for i, req := range reqs {
		wantResp, err := direct.Simulate(req)
		if err != nil {
			t.Fatalf("request %d direct: %v", i, err)
		}
		gotResp, err := viaCoord.Simulate(req)
		if err != nil {
			t.Fatalf("request %d via coordinator: %v", i, err)
		}
		if !reflect.DeepEqual(gotResp.Result, wantResp.Result) {
			t.Errorf("request %d: coordinator proxy diverged from direct worker result", i)
		}
		if gotResp.Key != wantResp.Key {
			t.Errorf("request %d: result key %q via coordinator, %q direct", i, gotResp.Key, wantResp.Key)
		}
	}
}

// TestClusterAdviseProxyMatchesWorker: /v1/advise through the
// coordinator returns exactly what a worker answers directly, for both
// the measured app source and a client-supplied pair matrix; a malformed
// request is rejected with the worker's own status mirrored.
func TestClusterAdviseProxyMatchesWorker(t *testing.T) {
	tc := startCluster(t, 3, serve.Options{Workers: 2})
	params := serve.Params{Scale: testScale, Seed: testSeed}
	direct := client.New(tc.workers[0].ts.URL)
	viaCoord := tc.client()

	reqs := []*serve.AdviseRequest{
		{Params: &params, App: "MP3D", Procs: 4},
		{Pair: [][]uint64{
			{0, 0, 500, 0},
			{0, 0, 0, 500},
			{500, 0, 0, 0},
			{0, 500, 0, 0},
		},
			Lengths:    []uint64{10, 10, 10, 10},
			Procs:      2,
			Current:    &serve.PlacementSpec{Algorithm: "SEED", Clusters: [][]int{{0, 1}, {2, 3}}},
			MemLatency: 30},
	}
	for i, req := range reqs {
		want, err := direct.Advise(req)
		if err != nil {
			t.Fatalf("request %d direct: %v", i, err)
		}
		got, err := viaCoord.Advise(req)
		if err != nil {
			t.Fatalf("request %d via coordinator: %v", i, err)
		}
		// The trace ID is per-request telemetry; everything else must
		// proxy through untouched.
		want.Trace, got.Trace = "", ""
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: coordinator advise diverged from direct worker answer", i)
		}
	}

	// A client error is the worker's verdict, mirrored — not a 503.
	_, err := viaCoord.Advise(&serve.AdviseRequest{Params: &params, App: "NoSuchApp", Procs: 4})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Errorf("unknown app through coordinator: %v, want a mirrored 400", err)
	}

	// Advise keeps working after the preferred worker dies: the
	// coordinator fails over to another candidate.
	req := &serve.AdviseRequest{Params: &params, App: "Gauss", Procs: 2}
	want, err := viaCoord.Advise(req)
	if err != nil {
		t.Fatal(err)
	}
	tc.workers[0].kill()
	tc.workers[1].kill()
	got, err := viaCoord.Advise(req)
	if err != nil {
		t.Fatalf("advise after killing two workers: %v", err)
	}
	want.Trace, got.Trace = "", ""
	if !reflect.DeepEqual(got, want) {
		t.Error("failover advise answer differs")
	}
}

// TestClusterSimulateAffinity: repeated identical cells land on the same
// worker (rendezvous routing), so the second request is a cache hit
// somewhere rather than a re-simulation everywhere.
func TestClusterSimulateAffinity(t *testing.T) {
	tc := startCluster(t, 4, serve.Options{Workers: 2})
	cl := tc.client()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	req := &serve.SimulateRequest{Params: &params, App: "MP3D", Algorithm: "LOAD-BAL", Procs: 4}

	for i := 0; i < 3; i++ {
		if _, err := cl.Simulate(req); err != nil {
			t.Fatal(err)
		}
	}
	var hits, entries uint64
	for _, w := range tc.workers {
		cs := w.srv.CacheStats()
		hits += cs.Hits
		entries += uint64(cs.Entries)
	}
	if entries != 1 {
		t.Errorf("cell simulated on %d workers, want exactly 1 (affinity broken)", entries)
	}
	if hits != 2 {
		t.Errorf("2 repeats produced %d cache hits, want 2", hits)
	}
}

// ---- behavior tests ------------------------------------------------------

// TestClusterIdempotentResubmit: the same sweep twice returns the same
// content-addressed job, flagged existing.
func TestClusterIdempotentResubmit(t *testing.T) {
	tc := startCluster(t, 2, serve.Options{Workers: 2})
	cl := tc.client()
	st := runSweep(t, cl)

	apps, algs, procs := testDims()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	acc, err := cl.Sweep(&serve.SweepRequest{Params: &params, Apps: apps, Algorithms: algs, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Existing {
		t.Error("identical resubmission not flagged existing")
	}
	if acc.Job != st.Job {
		t.Errorf("resubmission mapped to job %s, want %s", acc.Job, st.Job)
	}
}

// TestClusterRefusesWithoutWorkers: an empty cluster answers 503
// retriable — the client's retry loop, not an error, is the contract.
func TestClusterRefusesWithoutWorkers(t *testing.T) {
	tc := startCoordinator(t, testCoordOptions())
	cl := client.New(tc.ts.URL)
	apps, algs, procs := testDims()
	_, err := cl.Sweep(&serve.SweepRequest{Apps: apps, Algorithms: algs, Procs: procs})
	if err == nil {
		t.Fatal("sweep accepted with no workers")
	}
	if !client.IsRetriable(err) {
		t.Fatalf("refusal not retriable: %v", err)
	}
}

// TestWorkStealingDrainsStraggler: with one worker slowed to a crawl,
// idle workers steal its tail; the sweep still finishes byte-identical
// and the steal counters move. The 24-cell cluster mix guarantees the
// straggler's rendezvous share exceeds the steal threshold.
func TestWorkStealingDrainsStraggler(t *testing.T) {
	apps, algs, procs := loadgen.ClusterDims()
	cells := loadgen.ClusterMix()
	want, err := loadgen.GroundTruth(testScale, testSeed, cells)
	if err != nil {
		t.Fatal(err)
	}

	tc := startCoordinator(t, testCoordOptions())
	tc.addWorker("slow", serve.Options{
		Workers:    1,
		BeforeCell: func() { time.Sleep(150 * time.Millisecond) },
	})
	tc.addWorker("fast0", serve.Options{Workers: 2})
	tc.addWorker("fast1", serve.Options{Workers: 2})
	tc.waitLive(3)

	cl := tc.client()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	acc, err := cl.Sweep(&serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
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
	assertResults(t, st, cells, want)

	snap := tc.coord.Metrics().Snapshot()
	if snap["coordinator_steals_total"] == 0 {
		t.Error("no cells were stolen from the straggler")
	}
}

// TestClusterKeepsEveryWorkerBusy: the coordinator overlaps its workers.
// Four single-slot workers each hold their first cell in BeforeCell until
// all four are inside a cell at once, so a scheduler that kept fewer than
// four workers busy at some moment would leave the barrier shut until
// its deadline. The sweep must still finish byte-identical.
func TestClusterKeepsEveryWorkerBusy(t *testing.T) {
	const workers = 4
	apps, algs, procs := loadgen.ClusterDims()
	cells := loadgen.ClusterMix()
	want, err := loadgen.GroundTruth(testScale, testSeed, cells)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var arrived, timedOut atomic.Int32
	allIn := make(chan struct{})
	tc := startCoordinator(t, testCoordOptions())
	for i := 0; i < workers; i++ {
		var first sync.Once
		tc.addWorker(fmt.Sprintf("w%d", i), serve.Options{Workers: 1, BeforeCell: func() {
			first.Do(func() {
				if arrived.Add(1) == workers {
					close(allIn)
				}
			})
			select {
			case <-allIn:
			case <-ctx.Done():
				timedOut.Add(1)
			}
		}})
	}
	tc.waitLive(workers)

	params := serve.Params{Scale: testScale, Seed: testSeed}
	st := sweepTo(t, tc.client(), &serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
	})
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	assertResults(t, st, cells, want)
	if n := timedOut.Load(); n > 0 {
		t.Errorf("%d cells waited out the deadline: the %d workers were never all inside a cell at once", n, workers)
	}
}

// TestClusterHealthAndMetrics: the coordinator's health reports its role
// and live membership; /metrics carries the cluster-wide and per-worker
// series.
func TestClusterHealthAndMetrics(t *testing.T) {
	tc := startCluster(t, 2, serve.Options{Workers: 2})
	runSweep(t, tc.client())

	h, err := tc.client().Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" {
		t.Errorf("health role %q, want coordinator", h.Role)
	}
	if h.Workers != 2 {
		t.Errorf("health reports %d live workers, want 2", h.Workers)
	}
	if h.Jobs.Accepted != 1 || h.Jobs.Completed != 1 {
		t.Errorf("health job accounting %+v, want 1 accepted, 1 completed", h.Jobs)
	}

	metrics, err := tc.client().Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"coordinator_workers_live", "coordinator_leases_granted_total",
		"coordinator_cells_completed_total", "coordinator_worker_pending_cells_w0",
		"coordinator_worker_steals_total_w1",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
}

// TestRegisterValidation: malformed registrations are rejected at the
// decoder, never reaching the registry.
func TestRegisterValidation(t *testing.T) {
	cases := []struct {
		name string
		req  RegisterRequest
	}{
		{"empty id", RegisterRequest{URL: "http://x"}},
		{"bad id charset", RegisterRequest{Worker: "a b", URL: "http://x"}},
		{"long id", RegisterRequest{Worker: strings.Repeat("a", MaxWorkerID+1), URL: "http://x"}},
		{"empty url", RegisterRequest{Worker: "w"}},
		{"relative url", RegisterRequest{Worker: "w", URL: "/no-host"}},
		{"bad scheme", RegisterRequest{Worker: "w", URL: "ftp://x"}},
		{"long url", RegisterRequest{Worker: "w", URL: "http://" + strings.Repeat("h", MaxWorkerURL)}},
	}
	for _, c := range cases {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := (&RegisterRequest{Worker: "w-1.a_B", URL: "http://127.0.0.1:1"}).Validate(); err != nil {
		t.Errorf("valid registration rejected: %v", err)
	}
}

// ---- crash recovery ------------------------------------------------------

// openTestStore opens a store on dir, closed at cleanup. Call it before
// startCoordinator, so that the coordinator drains before the store
// closes.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// crashCopy copies a live store directory into a fresh one: the bytes a
// kill -9 at this instant would leave on disk. A file renamed away
// mid-copy (a segment sealing) restarts the copy.
func crashCopy(t *testing.T, src string) string {
	t.Helper()
retry:
	for attempt := 0; attempt < 10; attempt++ {
		dst := t.TempDir()
		ents, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(src, e.Name()))
			if os.IsNotExist(err) {
				continue retry
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	t.Fatal("store directory kept changing under the copy")
	return ""
}

// TestCoordinatorStoreRecovery: a coordinator killed mid-sweep leaves
// its job record and every harvested cell on disk. A coordinator
// started on that directory answers retriable for the sweep; the
// resubmission restores the harvested cells, leases out only the rest,
// and completes byte-identical.
func TestCoordinatorStoreRecovery(t *testing.T) {
	want, cells := groundTruth(t)
	dir := t.TempDir()

	// First incarnation: a slow worker, so the sweep is still running
	// when the first cells are harvested.
	opts := testCoordOptions()
	st1 := openTestStore(t, dir)
	opts.Store = st1
	tc := startCoordinator(t, opts)
	tc.addWorker("w0", serve.Options{
		Workers:    1,
		BeforeCell: func() { time.Sleep(100 * time.Millisecond) },
	})
	tc.waitLive(1)

	apps, algs, procs := testDims()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	acc, err := tc.client().Sweep(&serve.SweepRequest{Params: &params, Apps: apps, Algorithms: algs, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for a harvested cell on disk next to the job record.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, ok := tc.coord.Job(acc.Job)
		ss := st1.Stats()
		if ok && st.Completed >= 1 && ss.Entries-ss.PendingWrites >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell reached the store before the simulated crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	crashed := crashCopy(t, dir)
	if st, _ := tc.coord.Job(acc.Job); st.Status == serve.StatusDone {
		t.Fatal("sweep finished before the simulated crash")
	}

	// Second incarnation, on the crash image: the job answers retriable.
	opts2 := testCoordOptions()
	opts2.Store = openTestStore(t, crashed)
	tc2 := startCoordinator(t, opts2)
	st, ok := tc2.coord.Job(acc.Job)
	if !ok {
		t.Fatal("restarted coordinator forgot the interrupted job")
	}
	if st.Status != serve.StatusRetriable {
		t.Fatalf("interrupted job replayed %s, want retriable", st.Status)
	}

	// The client-side recovery: poll sees retriable, resubmits the
	// identical sweep, and the rerun completes byte-identical.
	var leased atomic.Int64
	tc2.addWorker("w0", serve.Options{Workers: 2, BeforeCell: func() { leased.Add(1) }})
	tc2.waitLive(1)
	st2 := runSweep(t, tc2.client())
	if st2.Job != acc.Job {
		t.Fatalf("resubmission mapped to %s, want %s", st2.Job, acc.Job)
	}
	assertResults(t, st2, cells, want)
	fromStore := tc2.coord.metrics.cellsFromStore.Value()
	if fromStore < 1 {
		t.Error("no harvested cell survived the crash")
	}
	if got := leased.Load() + fromStore; got != int64(len(cells)) {
		t.Errorf("leased %d + cells_from_store %d = %d, want the sweep's %d cells",
			leased.Load(), fromStore, got, len(cells))
	}
}

// TestCoordinatorDoneSweepOnDisk: every cell of a sweep a client has
// seen as done is on disk at that moment. A crash image taken right
// then restores the whole resubmitted sweep with zero leases.
func TestCoordinatorDoneSweepOnDisk(t *testing.T) {
	want, cells := groundTruth(t)
	dir := t.TempDir()
	opts := testCoordOptions()
	opts.Store = openTestStore(t, dir)
	tc := startCoordinator(t, opts)
	tc.addWorker("w0", serve.Options{Workers: 2})
	tc.waitLive(1)
	first := runSweep(t, tc.client())
	crashed := crashCopy(t, dir)
	assertResults(t, first, cells, want)

	opts2 := testCoordOptions()
	opts2.Store = openTestStore(t, crashed)
	tc2 := startCoordinator(t, opts2)
	if st, ok := tc2.coord.Job(first.Job); !ok || st.Status != serve.StatusRetriable {
		t.Fatalf("finished sweep after restart: %+v (known %v), want retriable", st, ok)
	}
	tc2.addWorker("w0", serve.Options{Workers: 2})
	tc2.waitLive(1)
	second := runSweep(t, tc2.client())
	assertResults(t, second, cells, want)
	if got := tc2.coord.metrics.cellsFromStore.Value(); got != int64(len(cells)) {
		t.Errorf("cells_from_store = %d, want %d", got, len(cells))
	}
	if got := tc2.coord.metrics.leasesGranted.Value(); got != 0 {
		t.Errorf("restored sweep granted %d leases, want 0", got)
	}
}

// TestStoreDivergenceDetected: a harvested cell whose result key
// disagrees with the result stored under its shard address fails the
// job with a divergence error and leaves the stored record as it was; a
// matching key passes.
func TestStoreDivergenceDetected(t *testing.T) {
	want, cells := groundTruth(t)
	c0 := cells[0]
	params := serve.Params{Scale: testScale, Seed: testSeed}
	cell := cellIdent{
		app: c0.App, alg: c0.Alg, procs: c0.Procs,
		shard: CellShardKey(params, c0.App, c0.Alg, c0.Procs, false),
	}
	st := openTestStore(t, t.TempDir())
	coord := New(Options{Store: st})
	harvested := func(resultKey string) *cjob {
		return &cjob{
			id:        "sw-x",
			cells:     []cellIdent{cell},
			states:    []uint8{cDone},
			results:   []serve.CellResult{{App: c0.App, Algorithm: c0.Alg, Procs: c0.Procs, Key: resultKey, Result: want[c0]}},
			completed: 1,
			done:      make(chan struct{}),
		}
	}

	for _, key := range []string{"key-A", "key-A"} {
		j := harvested(key)
		coord.persistCell(j, 0)
		if j.errmsg != "" {
			t.Fatalf("matching execution rejected: %s", j.errmsg)
		}
	}
	diverged := harvested("key-B")
	coord.persistCell(diverged, 0)
	if !strings.Contains(diverged.errmsg, "divergence") {
		t.Fatalf("diverging re-execution accepted: errmsg %q", diverged.errmsg)
	}
	coord.finalize(diverged)
	if s := diverged.snapshot(); s.Status != serve.StatusFailed {
		t.Errorf("diverged job ended %s, want failed", s.Status)
	}
	payload, ok := st.Get(store.Key(cell.shard))
	if !ok {
		t.Fatal("stored record vanished")
	}
	if prev, err := decodeStoredCellResult(cell, payload); err != nil || prev.Key != "key-A" {
		t.Errorf("stored record now %q (%v), want the first execution's key-A", prev.Key, err)
	}
}
