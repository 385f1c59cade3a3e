package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// testParams keeps serve tests fast: quarter-scale traces, fixed seed.
var testParams = Params{Scale: 0.25, Seed: 1994}

// newTestServer starts a Server plus its HTTP front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// libSuite builds the library-side ground truth for testParams.
func libSuite() *core.Suite {
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: testParams.Scale, Seed: testParams.Seed}
	return core.NewSuite(opts)
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestSimulateDifferential: every API cell result must be deeply equal to
// the corresponding direct library call — the server adds transport,
// queueing and caching, never arithmetic. A second pass over the same
// cells must come from the cache, still identical.
func TestSimulateDifferential(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	suite := libSuite()

	type cell struct {
		app, alg string
		procs    int
	}
	cells := []cell{
		{"MP3D", "SHARE-REFS", 2},
		{"MP3D", "RANDOM", 4},
		{"MP3D", "LOAD-BAL", 4},
		{"Gauss", "MIN-INVS", 2},
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range cells {
			req := SimulateRequest{
				Params:    &testParams,
				App:       c.app,
				Algorithm: c.alg,
				Procs:     c.procs,
			}
			resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pass %d %v: status %d: %s", pass, c, resp.StatusCode, body)
			}
			var sr SimulateResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			want, err := suite.RunOne(c.app, c.alg, c.procs, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sr.Result, want) {
				t.Errorf("pass %d %v: API result differs from library result", pass, c)
			}
			if pass == 1 && !sr.Cached {
				t.Errorf("second pass %v not served from cache", c)
			}
			if len(sr.Key) != 64 {
				t.Errorf("key %q is not a sha256 hex string", sr.Key)
			}
		}
	}
}

// TestSimulateEnginesAgree: the served result equals the library's run
// of the same cell on both engines — the fast engine that serves it and
// the reference engine the test suites keep as the oracle — and its
// content address is the one existing result stores were written under.
func TestSimulateEnginesAgree(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: "SHARE-REFS", Procs: 2}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	suite := libSuite()
	tr, err := suite.Trace("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := suite.Place("MP3D", "SHARE-REFS", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := suite.Config("MP3D", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.FastEngine, sim.ReferenceEngine} {
		want, err := sim.RunObserved(tr, pl, cfg, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sr.Result, want) {
			t.Errorf("served result differs from the %s engine's", eng)
		}
	}
	if want := rescache.KeyOf(testParams.Scale, testParams.Seed, "MP3D", core.PlacementKey(pl), cfg).String(); sr.Key != want {
		t.Errorf("key %s, want %s", sr.Key, want)
	}
}

// TestSimulateExplicitPlacementAndConfig: the explicit-cell mode (used by
// experiments -remote) must reproduce a direct sim.Run bit for bit.
func TestSimulateExplicitPlacementAndConfig(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	suite := libSuite()
	tr, err := suite.Trace("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := suite.Place("MP3D", "SHARE-ADDR", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := suite.Config("MP3D", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Associativity = 2 // an ablation config no named cell reaches
	want, err := sim.Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	spec := ConfigSpecOf(cfg)
	req := SimulateRequest{
		Params: &testParams,
		App:    "MP3D",
		Placement: &PlacementSpec{
			Algorithm: pl.Algorithm,
			Clusters:  pl.Clusters,
		},
		Config: &spec,
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr.Result, want) {
		t.Error("explicit placement+config result differs from direct sim.Run")
	}
}

// TestSimulateLargeCacheAllocationBounded: what one request allocates
// follows the cache lines its run touches, not the capacity it names.
// Gauss on 127 processors, one thread each, with the largest cache the
// API accepts (16 MB, 524,288 lines per processor: over 1 GB of lines if
// allocated up front) touches a few thousand lines per processor.
func TestSimulateLargeCacheAllocationBounded(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const procs = 127
	clusters := make([][]int, procs)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	spec := ConfigSpecOf(sim.DefaultConfig(procs))
	spec.CacheSize = 2 * sim.InfiniteCacheSize
	req := SimulateRequest{
		Params:    &testParams,
		App:       "Gauss",
		Placement: &PlacementSpec{Algorithm: "SINGLETONS", Clusters: clusters},
		Config:    &spec,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("one request allocated %d MB", alloc>>20)
	if alloc > 128<<20 {
		t.Errorf("one request allocated %d MB, want under 128 MB", alloc>>20)
	}
}

// TestSweepJobIDGolden pins a sweep job ID's bytes: restarted servers and
// coordinators must keep deriving the IDs already recorded in stored
// coordinator job records.
func TestSweepJobIDGolden(t *testing.T) {
	req := &SweepRequest{
		Apps: []string{"MP3D", "FFT"}, Algorithms: []string{"LOAD-BAL", "RANDOM"},
		Procs: []int{2, 4}, Infinite: true,
	}
	if got, want := SweepJobID(Params{Scale: 1, Seed: 1994}, req), "sw-c1af7cfe7c7b2957"; got != want {
		t.Errorf("SweepJobID = %s, want %s", got, want)
	}
}

// TestSweepDifferential: a sweep's cells, retrieved by polling the job,
// must equal the library's results cell by cell; resubmitting the
// identical sweep must return the same content-addressed job.
func TestSweepDifferential(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	suite := libSuite()

	req := SweepRequest{
		Params:     &testParams,
		Apps:       []string{"MP3D"},
		Algorithms: []string{"SHARE-REFS", "RANDOM"},
		Procs:      []int{2, 4},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Cells != 4 {
		t.Fatalf("accepted %d cells, want 4", acc.Cells)
	}
	if !strings.HasPrefix(acc.Job, "sw-") {
		t.Fatalf("job id %q missing sw- prefix", acc.Job)
	}

	st := pollJob(t, ts.URL, acc.Job)
	if st.Status != StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	if len(st.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(st.Results))
	}
	i := 0
	for _, alg := range req.Algorithms {
		for _, procs := range req.Procs {
			cr := st.Results[i]
			if cr.App != "MP3D" || cr.Algorithm != alg || cr.Procs != procs {
				t.Fatalf("cell %d order mismatch: %s/%s/%d", i, cr.App, cr.Algorithm, cr.Procs)
			}
			want, err := suite.RunOne("MP3D", alg, procs, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cr.Result, want) {
				t.Errorf("cell %s/%d differs from library result", alg, procs)
			}
			i++
		}
	}

	// Identical resubmission: same ID, existing record, no re-simulation.
	resp, body = postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status %d: %s", resp.StatusCode, body)
	}
	var acc2 SweepAccepted
	if err := json.Unmarshal(body, &acc2); err != nil {
		t.Fatal(err)
	}
	if acc2.Job != acc.Job {
		t.Errorf("resubmitted sweep got job %s, want %s", acc2.Job, acc.Job)
	}
	if !acc2.Existing {
		t.Error("resubmitted sweep not reported as existing")
	}
}

func pollJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st JobStatus
		resp := getJSON(t, base+"/v1/jobs/"+id, &st)
		switch st.Status {
		case StatusDone, StatusFailed, StatusRetriable, StatusCanceled:
			return st
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestValidationRejects: malformed or out-of-bounds requests answer 400
// with a JSON error, never a panic or an enqueue.
func TestValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := []string{
		``,
		`{`,
		`{"app":"MP3D"}`, // no algorithm or placement
		`{"app":"NoSuchApp","algorithm":"RANDOM","procs":2}`,            // unknown app
		`{"app":"MP3D","algorithm":"NOPE","procs":2}`,                   // unknown algorithm
		`{"app":"MP3D","algorithm":"RANDOM","procs":0}`,                 // procs under range
		`{"app":"MP3D","algorithm":"RANDOM","procs":100000}`,            // procs over range
		`{"app":"MP3D","algorithm":"RANDOM","procs":2,"x":1}`,           // unknown field
		`{"app":"MP3D","algorithm":"RANDOM","procs":2} trail`,           // trailing data
		`{"app":"MP3D","algorithm":"RANDOM","procs":2,"engine":"fast"}`, // no engine selector: unknown field
		`{"app":"MP3D","algorithm":"RANDOM","procs":2,"params":{"scale":-1}}`,
		`{"app":"MP3D","placement":{"algorithm":"X","clusters":[]}}`,
		`{"app":"MP3D","algorithm":"RANDOM","placement":{"algorithm":"X","clusters":[[0]]},"procs":2}`,
	}
	for _, b := range bad {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		dec := json.NewDecoder(resp.Body)
		decErr := dec.Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", b, resp.StatusCode)
		}
		if decErr != nil || er.Error == "" {
			t.Errorf("body %q: no JSON error message (%v)", b, decErr)
		}
	}

	badSweeps := []string{
		`{"apps":[],"algorithms":["RANDOM"],"procs":[2]}`,
		fmt.Sprintf(`{"apps":["MP3D"],"algorithms":["RANDOM"],"procs":[%s2]}`,
			strings.Repeat("2,", MaxSweepList)),
	}
	for _, b := range badSweeps {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep body %q: status %d, want 400", b, resp.StatusCode)
		}
	}
}

// TestOversizedRequestRejected: a body over MaxRequestBytes answers 400
// without buffering it.
func TestOversizedRequestRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	huge := `{"app":"` + strings.Repeat("a", MaxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(huge))
	if err != nil {
		// The server may abort the connection mid-upload once the limit
		// trips; that is also a rejection.
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

// TestQueueFullBackpressure: with workers gated and a tiny queue, surplus
// requests answer 429 with Retry-After instead of buffering unboundedly.
func TestQueueFullBackpressure(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 2})
	s.cellStarted = make(chan string, 16)
	s.cellGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		close(s.cellGate)
		ts.Close()
		s.Drain()
	}()

	// One cell occupies the worker (blocked on the gate), two fill the
	// queue; the fourth must bounce.
	req := SweepRequest{
		Params: &testParams, Apps: []string{"MP3D"},
		Algorithms: []string{"SHARE-REFS"}, Procs: []int{2},
	}
	launch := func(alg string) (*http.Response, []byte) {
		r := req
		r.Algorithms = []string{alg}
		return postJSON(t, ts.URL+"/v1/sweep", r)
	}
	if resp, body := launch("SHARE-REFS"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: %d %s", resp.StatusCode, body)
	}
	<-s.cellStarted // worker busy, queue empty
	if resp, body := launch("SHARE-ADDR"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second sweep: %d %s", resp.StatusCode, body)
	}
	if resp, body := launch("MIN-PRIV"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("third sweep: %d %s", resp.StatusCode, body)
	}
	resp, body := launch("MIN-INVS")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fourth sweep: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !er.Retriable {
		t.Errorf("429 body not a retriable error: %s", body)
	}
}

// TestDrainMarksQueuedRetriable is the kill-and-resume smoke test: a
// drain mid-sweep finishes the in-flight cell, marks the rest of the job
// retriable, and a fresh server given the identical sweep reproduces the
// full, library-equal results under the same content-addressed job ID.
func TestDrainMarksQueuedRetriable(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 64})
	s.cellStarted = make(chan string, 16)
	s.cellGate = make(chan struct{}, 16)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SweepRequest{
		Params: &testParams, Apps: []string{"MP3D"},
		Algorithms: []string{"SHARE-REFS", "RANDOM"}, Procs: []int{2, 4},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	// Freeze the worker inside cell 0, then pull the plug.
	<-s.cellStarted
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Wait until Drain has emptied the queue (the three cells behind the
	// frozen one) before releasing the worker, so exactly one cell is
	// in-flight at drain time — deterministically.
	for s.queue.Depth() != 0 {
		time.Sleep(time.Millisecond)
	}
	s.cellGate <- struct{}{}
	<-drained

	var st JobStatus
	jresp := getJSON(t, ts.URL+"/v1/jobs/"+acc.Job, &st)
	if st.Status != StatusRetriable {
		t.Fatalf("drained job status %s, want retriable", st.Status)
	}
	if jresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("retriable job answered %d, want 503", jresp.StatusCode)
	}
	if st.Completed != 1 {
		t.Errorf("in-flight cell count = %d completed, want exactly 1", st.Completed)
	}
	// Accounting: the accepted job is accounted retriable, not lost.
	h := s.Health()
	if h.Status != "draining" {
		t.Errorf("health after drain = %s, want draining", h.Status)
	}
	if h.Jobs.Accepted != 1 || h.Jobs.Retriable != 1 {
		t.Errorf("job accounting = %+v, want 1 accepted / 1 retriable", h.Jobs)
	}

	// New work is refused while draining.
	resp, body = postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep while draining: %d %s, want 503", resp.StatusCode, body)
	}

	// "Restart": a fresh server, identical sweep → identical job ID,
	// full results, equal to the library's.
	_, ts2 := newTestServer(t, Options{Workers: 2})
	resp, body = postJSON(t, ts2.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var acc2 SweepAccepted
	if err := json.Unmarshal(body, &acc2); err != nil {
		t.Fatal(err)
	}
	if acc2.Job != acc.Job {
		t.Fatalf("restarted server derived job %s, want %s", acc2.Job, acc.Job)
	}
	st2 := pollJob(t, ts2.URL, acc2.Job)
	if st2.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s: %s", st2.Status, st2.Error)
	}
	suite := libSuite()
	for _, cr := range st2.Results {
		want, err := suite.RunOne(cr.App, cr.Algorithm, cr.Procs, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cr.Result, want) {
			t.Errorf("cell %s/%s/%d differs from library after restart", cr.App, cr.Algorithm, cr.Procs)
		}
	}
}

// TestHealthAndMetricsEndpoints: /healthz and /metrics surface queue,
// cache and job state with the documented shapes.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3})

	var h HealthResponse
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, h.Status)
	}
	if h.Workers != 3 {
		t.Errorf("healthz workers = %d, want 3", h.Workers)
	}

	// One simulation, then the counters must move.
	req := SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: "RANDOM", Procs: 2}
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"serve_http_requests_total",
		"serve_sim_runs_total 1",
		"serve_cache_misses_total 1",
		"serve_jobs_completed_total 1",
		"serve_workers 3",
		"# TYPE serve_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	var pl PlacementsResponse
	if resp := getJSON(t, ts.URL+"/v1/placements", &pl); resp.StatusCode != http.StatusOK {
		t.Fatalf("placements: %d", resp.StatusCode)
	}
	if len(pl.Apps) == 0 || len(pl.Algorithms) == 0 {
		t.Errorf("placements catalog incomplete: %+v", pl)
	}

	if resp := getJSON(t, ts.URL+"/v1/jobs/sw-doesnotexist0000", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestCountersOnRequest: "counters": true attaches a request-scoped probe
// whose totals match the result's aggregate miss counts.
func TestCountersOnRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := SimulateRequest{
		Params: &testParams, App: "MP3D", Algorithm: "SHARE-REFS",
		Procs: 2, Counters: true,
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Counters == nil {
		t.Fatal("no counters in response despite counters:true")
	}
	if sr.Counters.Runs != 1 {
		t.Errorf("probe runs = %d, want 1", sr.Counters.Runs)
	}
	if sr.Counters.ExecTime != sr.Result.ExecTime {
		t.Errorf("probe exec time %d != result exec time %d", sr.Counters.ExecTime, sr.Result.ExecTime)
	}

	// Cache hit: no simulation ran, so no counters travel.
	resp, body = postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate (cached): %d %s", resp.StatusCode, body)
	}
	var sr2 SimulateResponse
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Error("second identical request not cached")
	}
	if sr2.Counters != nil {
		t.Error("cache hit carried probe counters, but nothing ran")
	}
}

// TestStepBudgetAnswers504: a step budget too small for the cell answers
// 504 with a retriable BudgetError, not a hang or a 500.
func TestStepBudgetAnswers504(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxSteps: 10})
	req := SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: "RANDOM", Procs: 2}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d %s, want 504", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "step budget") {
		t.Errorf("error %q does not mention the step budget", er.Error)
	}
}

// TestSimulatedTimeOverflowAnswers422: a memory latency of 2^62 cycles
// drives a 2-processor run's simulated time past its event time field
// within a few transactions; the engine refuses to wrap and the request
// gets the non-retriable 422 of a simulation error, not a 200 with a
// wrapped execution time.
func TestSimulatedTimeOverflowAnswers422(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"app":"MP3D","algorithm":"RANDOM","params":{"scale":0.25,"seed":1994},` +
		`"config":{"processors":2,"mem_latency":4611686018427387904}}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%+v), want 422", resp.StatusCode, er)
	}
	if decErr != nil || er.Retriable || !strings.Contains(er.Error, "simulated time overflow") {
		t.Errorf("error %+v (decode %v): want a non-retriable time overflow", er, decErr)
	}
}

// TestSingleFlight: concurrent identical misses share one simulation.
func TestSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})
	req := SimulateRequest{Params: &testParams, App: "Gauss", Algorithm: "SHARE-REFS", Procs: 4}
	const n = 4
	errs := make(chan error, n)
	results := make(chan *SimulateResponse, n)
	for i := 0; i < n; i++ {
		go func() {
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var sr SimulateResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				errs <- err
				return
			}
			results <- &sr
		}()
	}
	var first *sim.Result
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case sr := <-results:
			if first == nil {
				first = sr.Result
			} else if !reflect.DeepEqual(first, sr.Result) {
				t.Error("concurrent identical requests returned different results")
			}
		}
	}
	if runs := s.Metrics().Snapshot()["serve_sim_runs_total"]; runs != 1 {
		// A request either joins the flight, finds the cache the flight
		// filled, or starts the one flight: identical requests simulate
		// the cell exactly once, however their timing falls.
		t.Errorf("sim runs = %d for %d identical concurrent requests, want 1", runs, n)
	}
}

// TestConcurrentClientsMatchLibrary: the service adds transport, never
// arithmetic, under concurrent load. Clients released together walk one
// cell mix in the same order, so identical misses collide on every cell
// of the first round. Every reply must equal the direct library result,
// each distinct cell must be simulated exactly once, every request must
// count exactly one cache hit or miss, and /healthz and /metrics must
// agree with the load just applied.
//
// The cells are tiny (scale 0.02) so that a simulation lasts about as
// long as the clients' arrival jitter: across the whole catalog some
// identical misses then arrive just as a flight lands, the window in
// which a request could find neither the flight nor its cached result.
func TestConcurrentClientsMatchLibrary(t *testing.T) {
	const clients, rounds = 8, 2
	params := Params{Scale: 0.02, Seed: testParams.Seed}
	cells := loadgen.Mix(workload.Names(), core.AllAlgorithms(), []int{2, 4})
	want, err := loadgen.GroundTruth(params.Scale, params.Seed, cells)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // runs after the server's drain
	s, ts := newTestServer(t, Options{Workers: clients, Store: st})

	var failed, divergent atomic.Int64
	loadgen.Concurrent(clients, func(int) {
		for r := 0; r < rounds; r++ {
			for _, c := range cells {
				b, _ := json.Marshal(SimulateRequest{Params: &params, App: c.App, Algorithm: c.Alg, Procs: c.Procs})
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(b))
				if err != nil {
					failed.Add(1)
					continue
				}
				var sr SimulateResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				switch {
				case err != nil || resp.StatusCode != http.StatusOK:
					failed.Add(1)
				case !reflect.DeepEqual(sr.Result, want[c]):
					divergent.Add(1)
				}
			}
		}
	})
	requests := int64(clients * rounds * len(cells))
	if n := failed.Load(); n > 0 {
		t.Errorf("%d of %d requests failed", n, requests)
	}
	if n := divergent.Load(); n > 0 {
		t.Errorf("%d of %d replies diverged from the direct library result", n, requests)
	}

	if runs := s.Metrics().Snapshot()["serve_sim_runs_total"]; runs != int64(len(cells)) {
		t.Errorf("sim runs = %d for %d distinct cells", runs, len(cells))
	}
	if cs := s.CacheStats(); int64(cs.Hits+cs.Misses) != requests {
		t.Errorf("cache hits %d + misses %d != %d requests", cs.Hits, cs.Misses, requests)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Jobs.Completed != requests {
		t.Errorf("/healthz status %q, %d jobs completed; want ok, %d", h.Status, h.Jobs.Completed, requests)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"serve_http_requests_total", "serve_sim_runs_total",
		"serve_cache_hits_total", "serve_jobs_completed_total",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
}
