package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// sweepBody is the standard small sweep the durable tests submit.
func sweepBody() *SweepRequest {
	return &SweepRequest{
		Params:     &testParams,
		Apps:       []string{"MP3D"},
		Algorithms: []string{"RANDOM", "SHARE-REFS"},
		Procs:      []int{4},
	}
}

// submitAndWait posts a sweep and polls it to a terminal state.
func submitAndWait(t *testing.T, base string, req *SweepRequest) JobStatus {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, data)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	return pollJob(t, base, acc.Job)
}

// TestStoreTierWarmRestart is the tentpole contract end to end: results
// computed in one server life are served from disk in the next —
// byte-identical, marked cached, with zero fresh simulations.
func TestStoreTierWarmRestart(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Options{Workers: 2, Store: st1})
	first := submitAndWait(t, ts1.URL, sweepBody())
	if first.Status != StatusDone {
		t.Fatalf("first life: %+v", first)
	}
	ts1.Close()
	s1.Drain()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh server, fresh memory cache, same store dir.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if st2.Stats().Entries == 0 {
		t.Fatal("store empty after restart; nothing persisted")
	}
	s2, ts2 := newTestServer(t, Options{Workers: 2, Store: st2})
	second := submitAndWait(t, ts2.URL, sweepBody())
	if second.Status != StatusDone {
		t.Fatalf("second life: %+v", second)
	}

	if len(first.Results) != len(second.Results) {
		t.Fatalf("cell counts differ: %d vs %d", len(first.Results), len(second.Results))
	}
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Errorf("cell %d not served from the store after restart", i)
		}
		if second.Results[i].Key != first.Results[i].Key {
			t.Errorf("cell %d key drifted: %s vs %s", i, first.Results[i].Key, second.Results[i].Key)
		}
		if !reflect.DeepEqual(first.Results[i].Result, second.Results[i].Result) {
			t.Errorf("cell %d result differs across restart", i)
		}
	}
	if runs := s2.metrics.simRuns.Value(); runs != 0 {
		t.Errorf("second life simulated %d cells; want 0 (all from store)", runs)
	}
	if ss := st2.Stats(); ss.Hits == 0 {
		t.Errorf("store hits = 0 after warm restart: %+v", ss)
	}
}

// TestStoredCellEnvelopeRejectsMismatches: version skew and key
// mismatch are both misses (recompute), surfaced as decode errors.
func TestStoredCellEnvelopeRejectsMismatches(t *testing.T) {
	payload, err := EncodeStoredCell("aabb", map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	var dst map[string]int
	if err := DecodeStoredCell("aabb", payload, &dst); err != nil || dst["x"] != 1 {
		t.Fatalf("round trip: %v, %v", dst, err)
	}
	if err := DecodeStoredCell("ccdd", payload, &dst); err == nil {
		t.Fatal("key mismatch accepted")
	}
	skewed, _ := json.Marshal(storedCell{V: storedCellVersion + 1, Key: "aabb"})
	if err := DecodeStoredCell("aabb", skewed, &dst); err == nil {
		t.Fatal("version skew accepted")
	}
	if err := DecodeStoredCell("aabb", []byte("{garbage"), &dst); err == nil {
		t.Fatal("malformed payload accepted")
	}
}

// TestWebhookURLValidation: the sweep decoder is the gate. Terminal
// states are no longer pushed, so webhook_url is an unknown field and is
// refused whatever its value — a client still sending it learns at submit
// time that nothing will call back, instead of waiting for a push.
func TestWebhookURLValidation(t *testing.T) {
	const sweep = `{"apps":["MP3D"],"algorithms":["RANDOM"],"procs":[4]`
	if _, err := DecodeSweepRequest(strings.NewReader(sweep + `}`)); err != nil {
		t.Fatalf("sweep without webhook_url rejected: %v", err)
	}
	for _, url := range []string{
		"",
		"http://example.com/hook",
		"https://example.com/hook",
		"ftp://example.com/hook",
		"example.com/hook",
	} {
		body := sweep + `,"webhook_url":"` + url + `"}`
		_, err := DecodeSweepRequest(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), `unknown field "webhook_url"`) {
			t.Errorf("webhook_url %q: err = %v, want the unknown-field refusal", url, err)
		}
	}
}

// TestHealthReportsDurableTiers: /healthz grows a store block exactly
// when the store is attached.
func TestHealthReportsDurableTiers(t *testing.T) {
	_, bare := newTestServer(t, Options{Workers: 1})
	var h HealthResponse
	getJSON(t, bare.URL+"/healthz", &h)
	if h.Store != nil {
		t.Fatalf("bare server reports durable tiers: %+v", h)
	}

	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Options{Workers: 1, Store: st})
	submitAndWait(t, ts.URL, sweepBody())
	var h2 HealthResponse
	getJSON(t, ts.URL+"/healthz", &h2)
	if h2.Store == nil {
		t.Fatalf("durable tiers missing from health: %+v", h2)
	}
	if h2.Store.Puts == 0 {
		t.Errorf("store puts = 0 after a completed sweep: %+v", h2.Store)
	}
}
