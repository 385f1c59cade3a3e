package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/advise"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAdviseAppDifferential: the app-source advisor must answer exactly
// what the library's measurement + Recommend pipeline computes.
func TestAdviseAppDifferential(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	suite := libSuite()

	pair, _, err := suite.CoherenceMeasurement("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := suite.Trace("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := suite.Config("MP3D", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := advise.Recommend(pair, advise.Lengths(tr), 4, nil, cfg.MemLatency)
	if err != nil {
		t.Fatal(err)
	}

	req := AdviseRequest{Params: &testParams, App: "MP3D", Procs: 4}
	resp, body := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AdviseResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Measured {
		t.Error("app source did not report a measurement")
	}
	if ar.Threads != tr.NumThreads() {
		t.Errorf("threads %d, want %d", ar.Threads, tr.NumThreads())
	}
	if ar.Placement == nil || !reflect.DeepEqual(ar.Placement.Clusters, want.Placement.Clusters) {
		t.Errorf("recommended clusters differ from library Recommend")
	}
	if ar.ProposedCross != want.ProposedCross {
		t.Errorf("proposed cross %d, want %d", ar.ProposedCross, want.ProposedCross)
	}

	// With the LOAD-BAL placement as the baseline, the advisor predicts
	// the savings the COHERENCE clustering would buy.
	seed, err := suite.Place("MP3D", "LOAD-BAL", 4)
	if err != nil {
		t.Fatal(err)
	}
	req.Current = &PlacementSpec{Algorithm: seed.Algorithm, Clusters: seed.Clusters}
	wantCur, err := advise.Recommend(pair, advise.Lengths(tr), 4, seed, cfg.MemLatency)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ar = AdviseResponse{}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.CurrentCross != wantCur.CurrentCross || ar.PredictedSavings != wantCur.PredictedSavings {
		t.Errorf("savings (%d, %d), want (%d, %d)",
			ar.CurrentCross, ar.PredictedSavings, wantCur.CurrentCross, wantCur.PredictedSavings)
	}
}

// TestAdviseTraceSource: posting an observed MTT2 trace yields the same
// recommendation as measuring that trace directly.
func TestAdviseTraceSource(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	tr := trace.New("observed", 4)
	for i := 0; i < 4; i++ {
		r := trace.NewRecorder(tr, i)
		line := trace.SharedBase + uint64(i%2)*64*trace.WordSize
		for j := 0; j < 200; j++ {
			r.Compute(2)
			r.Store(line)
		}
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(tr.NumThreads())
	pair, _, err := advise.MeasurePairTraffic(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := advise.Recommend(pair, advise.Lengths(tr), 2, nil, cfg.MemLatency)
	if err != nil {
		t.Fatal(err)
	}

	req := AdviseRequest{TraceMTT2: buf.Bytes(), Procs: 2}
	resp, body := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AdviseResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Measured || !reflect.DeepEqual(ar.Placement.Clusters, want.Placement.Clusters) {
		t.Errorf("trace-source recommendation differs from direct measurement")
	}
}

// evictRefsPerThread fills most of a request body with the trace of
// evictEveryReferenceBody.
const evictRefsPerThread = 340

// evictEveryReferenceBody is the /v1/advise body of
// TestAdviseTraceMeasurementAllocationBounded at the given procs: a trace
// of MaxProcs threads in which every reference evicts the one before it.
func evictEveryReferenceBody(t *testing.T, procs int) []byte {
	t.Helper()
	cfg := sim.DefaultConfig(MaxProcs)
	tr := trace.New("evict-every-reference", MaxProcs)
	for i := 0; i < MaxProcs; i++ {
		r := trace.NewRecorder(tr, i)
		base := trace.SharedBase + uint64(i*cfg.LineSize)
		for j := 0; j < evictRefsPerThread; j++ {
			r.Compute(1)
			r.Store(base + uint64(j*cfg.CacheSize))
		}
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(AdviseRequest{TraceMTT2: buf.Bytes(), Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > MaxRequestBytes || len(body) < MaxRequestBytes*3/4 {
		t.Fatalf("request body is %d bytes, want most of the %d-byte limit", len(body), MaxRequestBytes)
	}
	return body
}

// TestAdviseBoundedThroughHandler: one /v1/advise request — decode,
// measurement, clustering and recommendation — allocates a bounded amount
// however its placement is posed. The cases are the evict-every-reference
// trace at 16 processors, and a dense 256-thread pair matrix of small
// tie-heavy entries, whose clustering once needed an unbounded
// thread-balance search, at 8 and at 32 processors.
func TestAdviseBoundedThroughHandler(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const n = 256
	pair := make([][]uint64, n)
	for i := range pair {
		pair[i] = make([]uint64, n)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := uint64(rng.Intn(100))
			pair[i][j], pair[j][i] = v, v
		}
	}
	lengths := make([]uint64, n)
	for i := range lengths {
		lengths[i] = 1000
	}
	matrixBody := func(procs int) []byte {
		b, err := json.Marshal(AdviseRequest{Pair: pair, Lengths: lengths, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		body  []byte
		bound uint64
	}{
		{"trace/procs=16", evictEveryReferenceBody(t, 16), 160 << 20},
		{"pair256/procs=8", matrixBody(8), 128 << 20},
		{"pair256/procs=32", matrixBody(32), 128 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, reply)
			}
			var ar AdviseResponse
			if err := json.Unmarshal(reply, &ar); err != nil {
				t.Fatal(err)
			}
			pl := placement.Placement{Clusters: ar.Placement.Clusters}
			if !pl.ThreadBalanced() {
				t.Errorf("recommended placement is not thread balanced: %v", pl.Clusters)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d-byte body; the request allocated %d MB", len(tc.body), alloc>>20)
			if alloc > tc.bound {
				t.Errorf("the request allocated %d MB, want under %d MB", alloc>>20, tc.bound>>20)
			}
		})
	}
}

// TestAdviseTraceMeasurementAllocationBounded: what the simulator
// allocates to measure a trace-source advise request stays bounded when
// the trace is built to make its per-cache state as large as it can. The
// trace fills most of a request body and runs one thread on each of
// MaxProcs processors, and every reference evicts the one before it:
// each thread strides by the cache size, so its blocks are all distinct
// and all map to one set. Every block gets its own directory entry, and
// the entries interleave across the threads. The measurement is the one
// the handler runs on the decoded body's trace.
func TestAdviseTraceMeasurementAllocationBounded(t *testing.T) {
	body := evictEveryReferenceBody(t, 16)
	req, err := DecodeAdviseRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	posted, err := trace.ReadFrom(bytes.NewReader(req.TraceMTT2))
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, res, err := advise.MeasurePairTraffic(posted, sim.DefaultConfig(posted.NumThreads()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Totals().Writebacks; got != uint64(MaxProcs*(evictRefsPerThread-1)) {
		t.Fatalf("%d dirty evictions, want one per reference but each thread's first", got)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d references in a %d-byte body; measuring them allocated %d MB", posted.TotalRefs(), len(body), alloc>>20)
	if alloc > 160<<20 {
		t.Errorf("measuring one request's trace allocated %d MB, want under 160 MB", alloc>>20)
	}
}

// TestAdvisePairSource: a pre-measured matrix is clustered as given, with
// savings predicted against the supplied current placement.
func TestAdvisePairSource(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := AdviseRequest{
		Pair: [][]uint64{
			{0, 0, 500, 0},
			{0, 0, 0, 500},
			{500, 0, 0, 0},
			{0, 500, 0, 0},
		},
		Lengths:    []uint64{10, 10, 10, 10},
		Procs:      2,
		Current:    &PlacementSpec{Algorithm: "SEED", Clusters: [][]int{{0, 1}, {2, 3}}},
		MemLatency: 30,
	}
	resp, body := postJSON(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AdviseResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Measured {
		t.Error("pair source reported a measurement")
	}
	// The seed splits both hot pairs: 4x500 cross. The recommendation
	// co-locates them: zero cross, savings 2000*30.
	if ar.CurrentCross != 2000 || ar.ProposedCross != 0 || ar.PredictedSavings != 60000 {
		t.Errorf("accounting (%d, %d, %d), want (2000, 0, 60000)",
			ar.CurrentCross, ar.ProposedCross, ar.PredictedSavings)
	}
}

// TestAdviseValidationRejects: malformed advise bodies answer 400.
func TestAdviseValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := []string{
		``,
		`{}`,                            // no source
		`{"procs":2}`,                   // no source
		`{"app":"MP3D"}`,                // no procs
		`{"app":"NoSuchApp","procs":2}`, // unknown app
		`{"app":"MP3D","procs":0}`,      // procs under range
		`{"app":"MP3D","procs":100000}`, // procs over range
		`{"app":"MP3D","procs":2,"engine":"warp"}`,
		`{"app":"MP3D","procs":2,"pair":[[0]],"lengths":[1]}`, // two sources
		`{"pair":[[0,1]],"lengths":[1],"procs":2}`,            // ragged matrix
		`{"pair":[[0,1],[1,0]],"lengths":[1],"procs":2}`,      // lengths mismatch
		`{"app":"MP3D","procs":2,"lengths":[1]}`,              // lengths without pair
		`{"app":"MP3D","procs":2,"current":{"algorithm":"X","clusters":[]}}`,
		`{"app":"MP3D","procs":2,"x":1}`, // unknown field
		`{"trace_mtt2":"bm90IGEgdHJhY2U=","procs":2,"trailing":1}`,
	}
	for _, b := range bad {
		resp, err := http.Post(ts.URL+"/v1/advise", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		decErr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", b, resp.StatusCode)
		}
		if decErr != nil || er.Error == "" {
			t.Errorf("body %q: no JSON error message (%v)", b, decErr)
		}
	}

	// A syntactically valid request whose trace payload is garbage fails
	// at advise time: 422, not 400.
	resp, body := postJSON(t, ts.URL+"/v1/advise",
		AdviseRequest{TraceMTT2: []byte("not a trace"), Procs: 2})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage trace: status %d, want 422: %s", resp.StatusCode, body)
	}
}

// TestSimulateOnlineAlgorithm: an ONLINE/… algorithm name runs the
// online engine over the API and reproduces the direct library run bit
// for bit, under the canonical name, with its own cache identity.
func TestSimulateOnlineAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	suite := libSuite()

	spec, ok, err := advise.ParseOnlineAlgorithm("ONLINE/COHERENCE@c=64,i=2000")
	if err != nil || !ok {
		t.Fatal(err)
	}
	tr, err := suite.Trace("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := suite.Place("MP3D", spec.SeedAlgorithm(), 4)
	if err != nil {
		t.Fatal(err)
	}
	onl := *seed
	onl.Algorithm = spec.String()
	cfg, err := suite.Config("MP3D", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunOnlineGuarded(tr, &onl, cfg, sim.FastEngine, opts, nil, sim.Guard{})
	if err != nil {
		t.Fatal(err)
	}

	keys := map[string]bool{}
	// The non-canonical spelling and the canonical one are the same cell.
	for _, name := range []string{"ONLINE/COHERENCE@c=64,i=2000", spec.String()} {
		req := SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: name, Procs: 4}
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Result.Algorithm != spec.String() {
			t.Errorf("%s: result algorithm %q, want canonical %q", name, sr.Result.Algorithm, spec.String())
		}
		if sr.Result.Online == nil {
			t.Fatalf("%s: online run returned no Online stats", name)
		}
		if !reflect.DeepEqual(sr.Result, want) {
			t.Errorf("%s: API online result differs from direct library run", name)
		}
		keys[sr.Key] = true
	}
	if len(keys) != 1 {
		t.Errorf("canonical and non-canonical names got %d cache keys, want 1", len(keys))
	}

	// The static seed cell must have a different cache identity.
	req := SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: spec.SeedAlgorithm(), Procs: 4}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("static seed: status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if keys[sr.Key] {
		t.Error("online cell shares its cache key with the static seed cell")
	}
	if sr.Result.Online != nil {
		t.Error("static cell carries Online stats")
	}

	// A malformed ONLINE name is rejected up front.
	req = SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: "ONLINE/COHERENCE@i=0,c=1", Procs: 4}
	resp, body = postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed online name: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestSweepOnlineAlgorithm: ONLINE/… names sweep through the unchanged
// /v1/sweep machinery next to static algorithms.
func TestSweepOnlineAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := SweepRequest{
		Params:     &testParams,
		Apps:       []string{"Gauss"},
		Algorithms: []string{"LOAD-BAL", "ONLINE/HYST@i=2000,c=64"},
		Procs:      []int{2},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, ts.URL, acc.Job)
	if st.Status != StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	if len(st.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(st.Results))
	}
	static, online := st.Results[0], st.Results[1]
	if static.Result.Online != nil {
		t.Error("static sweep cell carries Online stats")
	}
	if online.Result.Online == nil {
		t.Error("online sweep cell has no Online stats")
	}
	if online.Result.Algorithm != "ONLINE/HYST@i=2000,c=64" {
		t.Errorf("online cell algorithm %q", online.Result.Algorithm)
	}
}
