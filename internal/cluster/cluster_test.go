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
	"strconv"
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
	return Options{HeartbeatTimeout: 300 * time.Millisecond}
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
		agent: StartAgent(tc.ts.URL, id, ts.URL, srv.Health().Workers,
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
		if len(tc.coord.liveWorkers()) >= n {
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

// job returns a sweep job's status by ID.
func (tc *testCluster) job(id string) (serve.JobStatus, bool) {
	j, ok := tc.coord.LookupJob(id)
	if !ok {
		return serve.JobStatus{}, false
	}
	return j.Snapshot(), true
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

// TestClusterSweepOnline: ONLINE/… cells dispatch like static ones. The
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

// TestClusterWorkerRefusalFailsCells: a worker's answer to a cell is
// mapped by its status. A non-retriable one (400, 422, or a 504
// step-budget abort) comes from a live worker — it answered — so the
// coordinator fails the cell with the worker's message, the sweep ends
// failed, and no worker is declared dead. A 429 or 503 sends the cell to
// the next candidate, so a second, healthy worker finishes the sweep
// byte-identical, and again no worker dies.
func TestClusterWorkerRefusalFailsCells(t *testing.T) {
	const refusal = "cell refused by this worker"
	want, cells := groundTruth(t)
	for _, status := range []int{http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusGatewayTimeout,
		http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			tc := startCoordinator(t, testCoordOptions())
			srv := serve.NewServer(serve.Options{Workers: 1})
			h := srv.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/simulate" {
					serve.WriteError(w, &serve.Error{Status: status, Message: refusal, Retriable: status >= 500 || status == 429})
					return
				}
				h.ServeHTTP(w, r)
			}))
			tc.workers = append(tc.workers, &testWorker{id: "refuser", srv: srv, ts: ts,
				agent: StartAgent(tc.ts.URL, "refuser", ts.URL, 1, 50*time.Millisecond, nil)})
			retriable := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
			if retriable {
				tc.addWorker("healthy", serve.Options{Workers: 1})
			}
			tc.waitLive(len(tc.workers))

			apps, algs, procs := testDims()
			st := sweepTo(t, tc.client(), &serve.SweepRequest{
				Params: &serve.Params{Scale: testScale, Seed: testSeed},
				Apps:   apps, Algorithms: algs, Procs: procs,
			})
			if retriable {
				if st.Status != serve.StatusDone {
					t.Fatalf("sweep ended %s (%q), want done on the healthy worker", st.Status, st.Error)
				}
				assertResults(t, st, cells, want)
			} else if st.Status != serve.StatusFailed || !strings.Contains(st.Error, refusal) {
				t.Fatalf("sweep ended %s (%q), want failed with the worker's message %q", st.Status, st.Error, refusal)
			}
			if deaths := tc.coord.Metrics().Snapshot()["coordinator_worker_deaths_total"]; deaths != 0 {
				t.Errorf("a worker was declared dead %d times", deaths)
			}
			if live := tc.coord.liveWorkers(); len(live) != len(tc.workers) {
				t.Errorf("%d live workers after the refusals, want %d", len(live), len(tc.workers))
			}
		})
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

// TestClusterKnownSweepWithoutWorkers: resubmitting a known sweep is a
// lookup even with no live worker — only a new or retriable sweep needs
// one — so a finished sweep answers done, flagged existing, after its
// only worker died. A retriable sweep is refused and keeps its record.
func TestClusterKnownSweepWithoutWorkers(t *testing.T) {
	dir := t.TempDir()
	opts := testCoordOptions()
	opts.Store = openTestStore(t, dir)
	tc := startCoordinator(t, opts)
	tc.addWorker("w0", serve.Options{Workers: 1})
	tc.waitLive(1)
	params := serve.Params{Scale: testScale, Seed: testSeed}
	req := &serve.SweepRequest{Params: &params, Apps: []string{"MP3D"}, Algorithms: []string{"RANDOM"}, Procs: []int{2}}
	st := sweepTo(t, tc.client(), req)
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	tc.workers[0].kill()
	deadline := time.Now().Add(10 * time.Second)
	for len(tc.coord.liveWorkers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never declared the killed worker dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	acc, err := client.New(tc.ts.URL).Sweep(req)
	if err != nil {
		t.Fatalf("known sweep refused with no live worker: %v", err)
	}
	if acc.Job != st.Job || !acc.Existing || acc.Status != serve.StatusDone {
		t.Errorf("resubmission answered %+v, want job %s existing and done", acc, st.Job)
	}

	// A coordinator restarted on the store, with no worker, answers the
	// sweep retriable from its job record; a resubmission is refused and
	// the record stands, counted once.
	opts2 := testCoordOptions()
	opts2.Store = openTestStore(t, crashCopy(t, dir))
	tc2 := startCoordinator(t, opts2)
	for i := 0; i < 2; i++ {
		if got, ok := tc2.job(st.Job); !ok || got.Status != serve.StatusRetriable {
			t.Fatalf("restarted sweep (check %d): %+v (known %v), want retriable", i, got, ok)
		}
		if i == 0 {
			if _, err := client.New(tc2.ts.URL).Sweep(req); !client.IsRetriable(err) {
				t.Fatalf("retriable sweep with no live worker answered %v, want a retriable refusal", err)
			}
		}
	}
	if n := tc2.coord.Health().Jobs.Retriable; n != 1 {
		t.Errorf("jobs retriable = %d, want 1", n)
	}
}

// TestClusterNoCellWaitsInQueue: the coordinator never queues a cell
// behind a busy worker. Four single-slot workers, one a straggler, run
// the cluster mix; every cell, when it starts, must find its worker's
// queue empty — a cell waiting there could be running on an idle worker
// instead — and the sweep must still finish byte-identical.
func TestClusterNoCellWaitsInQueue(t *testing.T) {
	apps, algs, procs := loadgen.ClusterDims()
	cells := loadgen.ClusterMix()
	want, err := loadgen.GroundTruth(testScale, testSeed, cells)
	if err != nil {
		t.Fatal(err)
	}

	tc := startCoordinator(t, testCoordOptions())
	var queued atomic.Int32
	for i, id := range []string{"slow", "w1", "w2", "w3"} {
		var self atomic.Pointer[serve.Server]
		w := tc.addWorker(id, serve.Options{Workers: 1, BeforeCell: func() {
			if self.Load().Health().QueueDepth != 0 {
				queued.Add(1)
			}
			if i == 0 {
				time.Sleep(100 * time.Millisecond)
			}
		}})
		self.Store(w.srv)
	}
	tc.waitLive(4)

	params := serve.Params{Scale: testScale, Seed: testSeed}
	st := sweepTo(t, tc.client(), &serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
	})
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	assertResults(t, st, cells, want)
	if n := queued.Load(); n > 0 {
		t.Errorf("%d cells started with another cell waiting in their worker's queue", n)
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
		"coordinator_workers_live", "coordinator_requeues_total",
		"coordinator_cells_completed_total", "coordinator_worker_pending_cells_w0",
		"coordinator_worker_requeues_total_w1",
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
		{"long url", RegisterRequest{Worker: "w", URL: "http://" + strings.Repeat("h", MaxWorkerURL), Slots: 1}},
		{"no slots", RegisterRequest{Worker: "w", URL: "http://x"}},
		{"too many slots", RegisterRequest{Worker: "w", URL: "http://x", Slots: MaxWorkerSlots + 1}},
	}
	for _, c := range cases {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := (&RegisterRequest{Worker: "w-1.a_B", URL: "http://127.0.0.1:1", Slots: MaxWorkerSlots}).Validate(); err != nil {
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
// its job record and every recorded cell on disk. A coordinator
// started on that directory answers retriable for the sweep; the
// resubmission restores the recorded cells, sends only the rest to a
// worker, and completes byte-identical.
func TestCoordinatorStoreRecovery(t *testing.T) {
	want, cells := groundTruth(t)
	dir := t.TempDir()

	// First incarnation: a slow worker, so the sweep is still running
	// when the first cells are recorded.
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
	// Wait for a recorded cell on disk next to the job record.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, ok := tc.job(acc.Job)
		ss := st1.Stats()
		if ok && st.Completed >= 1 && ss.Entries >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell reached the store before the simulated crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	crashed := crashCopy(t, dir)
	if st, _ := tc.job(acc.Job); st.Status == serve.StatusDone {
		t.Fatal("sweep finished before the simulated crash")
	}

	// Second incarnation, on the crash image: the job answers retriable.
	opts2 := testCoordOptions()
	opts2.Store = openTestStore(t, crashed)
	tc2 := startCoordinator(t, opts2)
	st, ok := tc2.job(acc.Job)
	if !ok {
		t.Fatal("restarted coordinator forgot the interrupted job")
	}
	if st.Status != serve.StatusRetriable {
		t.Fatalf("interrupted job replayed %s, want retriable", st.Status)
	}

	// The client-side recovery: poll sees retriable, resubmits the
	// identical sweep, and the rerun completes byte-identical.
	var ran atomic.Int64
	tc2.addWorker("w0", serve.Options{Workers: 2, BeforeCell: func() { ran.Add(1) }})
	tc2.waitLive(1)
	st2 := runSweep(t, tc2.client())
	if st2.Job != acc.Job {
		t.Fatalf("resubmission mapped to %s, want %s", st2.Job, acc.Job)
	}
	assertResults(t, st2, cells, want)
	fromStore := tc2.coord.metrics.cellsFromStore.Value()
	if fromStore < 1 {
		t.Error("no recorded cell survived the crash")
	}
	if got := ran.Load() + fromStore; got != int64(len(cells)) {
		t.Errorf("ran %d + cells_from_store %d = %d, want the sweep's %d cells",
			ran.Load(), fromStore, got, len(cells))
	}
}

// TestCoordinatorDoneSweepOnDisk: every cell of a sweep a client has
// seen as done is on disk at that moment. A crash image taken right
// then restores the whole resubmitted sweep without running a cell.
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
	if st, ok := tc2.job(first.Job); !ok || st.Status != serve.StatusRetriable {
		t.Fatalf("finished sweep after restart: %+v (known %v), want retriable", st, ok)
	}
	var ran atomic.Int64
	tc2.addWorker("w0", serve.Options{Workers: 2, BeforeCell: func() { ran.Add(1) }})
	tc2.waitLive(1)
	second := runSweep(t, tc2.client())
	assertResults(t, second, cells, want)
	if got := tc2.coord.metrics.cellsFromStore.Value(); got != int64(len(cells)) {
		t.Errorf("cells_from_store = %d, want %d", got, len(cells))
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("restored sweep ran %d cells on the worker, want 0", got)
	}
}

// TestStoreDivergenceDetected: a recorded cell whose result key
// disagrees with the result stored under its shard address fails the
// job with a divergence error and leaves the stored record as it was; a
// matching key passes.
func TestStoreDivergenceDetected(t *testing.T) {
	want, cells := groundTruth(t)
	c0 := cells[0]
	params := serve.Params{Scale: testScale, Seed: testSeed}
	req := &serve.SweepRequest{Params: &params, Apps: []string{c0.App}, Algorithms: []string{c0.Alg}, Procs: []int{c0.Procs}}
	cell := cellsOf(serve.NewSweepJob(req, nil))[0]
	st := openTestStore(t, t.TempDir())
	coord := New(Options{Store: st})
	recorded := func(resultKey string) (*serve.Job, serve.CellOutcome) {
		j := serve.NewSweepJob(req, nil)
		o := serve.CellOutcome{Key: resultKey, Result: want[c0]}
		j.Finish(0, o)
		return j, o
	}

	for _, key := range []string{"key-A", "key-A"} {
		j, o := recorded(key)
		coord.persistCell(j, cell, o)
		if e := j.Snapshot().Error; e != "" {
			t.Fatalf("matching execution rejected: %s", e)
		}
	}
	diverged, o := recorded("key-B")
	coord.persistCell(diverged, cell, o)
	if e := diverged.Snapshot().Error; !strings.Contains(e, "divergence") {
		t.Fatalf("diverging re-execution accepted: error %q", e)
	}
	diverged.Settle(coord.metrics.jobs)
	if s := diverged.Snapshot(); s.Status != serve.StatusFailed {
		t.Errorf("diverged job ended %s, want failed", s.Status)
	}
	payload, ok := st.Get(store.Key(cell.shard))
	if !ok {
		t.Fatal("stored record vanished")
	}
	if prev, err := decodeStoredCell(cell, payload); err != nil || prev.Key != "key-A" {
		t.Errorf("stored record now %q (%v), want the first execution's key-A", prev.Key, err)
	}
}

// TestAgentStopsWhenCoordinatorHangs: a coordinator that accepts the
// connection but never answers must not hold up a worker's shutdown —
// Stop cancels the agent's request in flight.
func TestAgentStopsWhenCoordinatorHangs(t *testing.T) {
	release := make(chan struct{})
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	agent := StartAgent(ts.URL, "w0", "http://127.0.0.1:1", 1, 10*time.Millisecond, nil)
	<-arrived
	stopped := make(chan struct{})
	go func() {
		agent.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Agent.Stop still blocked 5s after the coordinator stopped answering")
	}
}

// TestDeadWorkersDoNotFillCluster: a full registry of dead workers with
// nothing in flight must not lock a new worker out; the coordinator
// forgets the dead ones, and their per-worker /metrics series with
// them. Only MaxWorkers live workers fill the cluster.
func TestDeadWorkersDoNotFillCluster(t *testing.T) {
	coord := New(Options{HeartbeatTimeout: time.Hour})
	defer coord.Drain()
	now := time.Now()
	for i := 0; i < MaxWorkers; i++ {
		if _, err := coord.register(fmt.Sprintf("old%d", i), "http://127.0.0.1:1", 1, now); err != nil {
			t.Fatalf("registration %d: %v", i, err)
		}
	}
	if _, err := coord.register("one-too-many", "http://127.0.0.1:1", 1, now); err == nil {
		t.Fatal("registration beyond MaxWorkers live workers accepted")
	}
	for _, w := range coord.liveWorkers() {
		coord.markDead(w, errors.New("gone"))
	}
	live, err := coord.register("fresh", "http://127.0.0.1:2", 1, now)
	if err != nil {
		t.Fatalf("fresh worker refused by a registry of dead workers: %v", err)
	}
	if live != 1 {
		t.Errorf("%d live workers after the fresh registration, want 1", live)
	}
	snap := coord.Metrics().Snapshot()
	if _, ok := snap["coordinator_worker_pending_cells_old0"]; ok {
		t.Error("forgotten worker's series still exported")
	}
	if _, ok := snap["coordinator_worker_pending_cells_fresh"]; !ok {
		t.Error("fresh worker has no per-worker series")
	}
}
