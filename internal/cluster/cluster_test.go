package cluster

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
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
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
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
	cl.MaxRetries = 64
	cl.RetryWait = 10 * time.Millisecond
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

// runSweep submits the testDims sweep and waits it to done, failing the
// test otherwise.
func runSweep(t *testing.T, cl *client.Client) *serve.JobStatus {
	t.Helper()
	apps, algs, procs := testDims()
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
		// Journaled, per the clustering acceptance bar: the journal's
		// per-cell divergence tripwire rides along the differential.
		opts := testCoordOptions()
		opts.Journal = filepath.Join(t.TempDir(), "coord.mtj")
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

// ---- journal recovery ----------------------------------------------------

// TestCoordinatorJournalRecovery: a coordinator killed mid-sweep hands
// the job back retriable after restart; resubmission completes it
// byte-identical, and the journaled per-cell keys cross-check clean.
func TestCoordinatorJournalRecovery(t *testing.T) {
	want, cells := groundTruth(t)
	journal := filepath.Join(t.TempDir(), "coord.mtj")

	// First incarnation: accept the sweep, then drain before it can
	// finish (slow worker), leaving job/ without done/ in the journal.
	opts := testCoordOptions()
	opts.Journal = journal
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
	// Let at least one cell land in the journal so the rerun cross-checks
	// a pre-crash key.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, ok := tc.coord.Job(acc.Job)
		if ok && st.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before the simulated crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tc.workers[0].kill()
	tc.coord.Drain()
	tc.ts.Close()

	// Second incarnation, same journal: the job must replay retriable.
	opts2 := testCoordOptions()
	opts2.Journal = journal
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
	tc2.addWorker("w0", serve.Options{Workers: 2})
	tc2.waitLive(1)
	st2 := runSweep(t, tc2.client())
	if st2.Job != acc.Job {
		t.Fatalf("resubmission mapped to %s, want %s", st2.Job, acc.Job)
	}
	assertResults(t, st2, cells, want)
}

// TestJournalDivergenceDetected: a post-crash re-execution whose result
// key disagrees with the journal must surface as an error, not silently
// overwrite history.
func TestJournalDivergenceDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.mtj")
	cj, interrupted, err := openCoordJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(interrupted) != 0 {
		t.Fatalf("fresh journal replayed %d interrupted jobs", len(interrupted))
	}
	if err := cj.jobAccepted("sw-x", 2); err != nil {
		t.Fatal(err)
	}
	if err := cj.cellDone("sw-x", 0, "key-A"); err != nil {
		t.Fatal(err)
	}
	cj.close()

	cj2, interrupted, err := openCoordJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cj2.close()
	if len(interrupted) != 1 || interrupted[0] != "sw-x" {
		t.Fatalf("interrupted jobs %v, want [sw-x]", interrupted)
	}
	// The job/ record's value is the cell count and the fixed engine
	// label: the bytes existing journals hold.
	if v, ok := cj2.j.Done("job/sw-x"); !ok || v != "2 guarded" {
		t.Errorf("job record %q, want %q", v, "2 guarded")
	}
	if err := cj2.cellDone("sw-x", 0, "key-A"); err != nil {
		t.Errorf("matching re-execution rejected: %v", err)
	}
	if err := cj2.cellDone("sw-x", 0, "key-B"); err == nil {
		t.Error("diverging re-execution accepted silently")
	}
}
