package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// TestJobEventsSSEDifferential: a live stream on a running sweep must
// deliver cell completions and end with the job's terminal state — with
// no polling — and that terminal event must agree with what a poll of
// GET /v1/jobs/{id} reports afterwards.
func TestJobEventsSSEDifferential(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 2,
		// Slow cells down so the stream reliably attaches mid-sweep.
		BeforeCell: func() { time.Sleep(20 * time.Millisecond) },
	})

	req := SweepRequest{
		Params: &testParams,
		Apps:   []string{"MP3D", "Gauss"}, Algorithms: []string{"RANDOM", "LOAD-BAL"},
		Procs: []int{2, 4},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Trace == "" {
		t.Fatal("sweep accepted without a trace ID")
	}

	events, cancel := obstest.OpenSSE(t, ts.URL+"/v1/jobs/"+acc.Job+"/events")
	defer cancel()

	// Consume the stream to its natural end: the handler closes it after
	// writing a terminal "job" event. No status polling anywhere.
	var (
		terminal  *JobEvent
		cellSeen  = map[int]bool{}
		cellCount int
	)
	for ev := range events {
		switch ev.Kind {
		case "job":
			var je JobEvent
			if err := json.Unmarshal(ev.Data, &je); err != nil {
				t.Fatalf("bad job event %s: %v", ev.Data, err)
			}
			if je.Job != acc.Job {
				t.Fatalf("job event for %q on stream of %q", je.Job, acc.Job)
			}
			if TerminalStatus(je.Status) {
				terminal = &je
			}
		case "cell":
			var ce CellEvent
			if err := json.Unmarshal(ev.Data, &ce); err != nil {
				t.Fatalf("bad cell event %s: %v", ev.Data, err)
			}
			if ce.Cell < 0 || ce.Cell >= acc.Cells {
				t.Errorf("cell event index %d out of range [0,%d)", ce.Cell, acc.Cells)
			}
			if cellSeen[ce.Cell] {
				t.Errorf("cell %d reported twice", ce.Cell)
			}
			cellSeen[ce.Cell] = true
			cellCount++
			if ce.State != "done" {
				t.Errorf("cell %d ended %q: %s", ce.Cell, ce.State, ce.Error)
			}
		}
	}
	if terminal == nil {
		t.Fatal("stream closed without a terminal job event")
	}
	if terminal.Status != StatusDone {
		t.Fatalf("terminal status %q: %s", terminal.Status, terminal.Error)
	}
	if terminal.Completed != acc.Cells {
		t.Errorf("terminal event reports %d/%d cells", terminal.Completed, acc.Cells)
	}
	if cellCount == 0 {
		t.Error("stream delivered no cell events while the sweep ran")
	}

	// Differential: the poll endpoint must agree with the stream's end.
	st := pollJob(t, ts.URL, acc.Job)
	if st.Status != terminal.Status || st.Completed != terminal.Completed {
		t.Errorf("poll (%s, %d cells) disagrees with stream terminal (%s, %d cells)",
			st.Status, st.Completed, terminal.Status, terminal.Completed)
	}
}

// stubExecutor holds one running job, stubJob, that the test finishes
// directly: nothing it does publishes on the bus. Calls to any other
// Executor method panic on the nil embedded interface.
type stubExecutor struct {
	Executor
	mu     sync.Mutex
	status string
	done   chan struct{}
}

const stubJob = "sw-stub"

func (e *stubExecutor) LookupJob(id string) (JobRef, bool) {
	if id != stubJob {
		return JobRef{}, false
	}
	return JobRef{Status: e.snapshot, Done: e.done}, true
}

func (e *stubExecutor) snapshot() JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := JobStatus{Job: stubJob, Status: e.status, Cells: 1}
	if e.status == StatusDone {
		st.Completed = 1
	}
	return st
}

func (e *stubExecutor) finish() {
	e.mu.Lock()
	e.status = StatusDone
	e.mu.Unlock()
	close(e.done)
}

// TestJobEventsTerminalWithoutPublish: a stream whose job ends without
// a single bus event still delivers the snapshot and then the terminal
// state, taken off the job's done channel.
func TestJobEventsTerminalWithoutPublish(t *testing.T) {
	ex := &stubExecutor{status: StatusRunning, done: make(chan struct{})}
	ts := httptest.NewServer(NewHandler(ex, obs.NewBus(nil),
		NewRequestMetrics(obs.NewMetricSet(), "stub"), func(*http.ServeMux) {}))
	defer ts.Close()

	events, cancel := obstest.OpenSSE(t, ts.URL+"/v1/jobs/"+stubJob+"/events")
	defer cancel()
	var got []JobEvent
	for ev := range events {
		if ev.Kind != "job" {
			t.Errorf("unexpected %q event from a job that publishes nothing", ev.Kind)
			continue
		}
		var je JobEvent
		if err := json.Unmarshal(ev.Data, &je); err != nil {
			t.Fatal(err)
		}
		got = append(got, je)
		if len(got) == 1 {
			ex.finish() // the stream is attached: end the job silently
		}
	}
	if len(got) != 2 || got[0].Status != StatusRunning || got[1].Status != StatusDone {
		t.Fatalf("stream carried %+v, want the running snapshot then done", got)
	}
	if got[1].Completed != 1 {
		t.Errorf("terminal event reports %d/1 cells", got[1].Completed)
	}
}

// TestJobEventsSamples: a sweep watched from before its cells run
// streams "sample" events whose windows tile each cell's execution time
// at sampleWindow cycles, and whose hits and misses, class by class, add
// up to the cell's result totals. (Sample Refs leave out upgrades, so
// Refs are not compared.)
func TestJobEventsSamples(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	_, ts := newTestServer(t, Options{Workers: 2, BeforeCell: func() { <-gate }})
	t.Cleanup(open) // before the server's drain, which waits for the cells

	req := SweepRequest{
		Params: &testParams,
		Apps:   []string{"MP3D", "Gauss"}, Algorithms: []string{"RANDOM", "LOAD-BAL"},
		Procs: []int{2, 4},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	events, cancel := obstest.OpenSSE(t, ts.URL+"/v1/jobs/"+acc.Job+"/events")
	defer cancel()
	// The handler subscribes before it writes the snapshot, so every cell
	// released after the snapshot runs watched.
	if ev, ok := <-events; !ok || ev.Kind != "job" {
		t.Fatalf("stream opened with %q, want the job snapshot", ev.Kind)
	}
	open()
	samples := make(map[int][]SampleEvent)
	for ev := range events {
		if ev.Kind != "sample" {
			continue
		}
		var se SampleEvent
		if err := json.Unmarshal(ev.Data, &se); err != nil {
			t.Fatalf("bad sample event %s: %v", ev.Data, err)
		}
		if se.Job != acc.Job {
			t.Fatalf("sample event for %q on stream of %q", se.Job, acc.Job)
		}
		samples[se.Cell] = append(samples[se.Cell], se)
	}

	st := pollJob(t, ts.URL, acc.Job)
	if st.Status != StatusDone || len(st.Results) != acc.Cells {
		t.Fatalf("job ended %s with %d/%d results: %s", st.Status, len(st.Results), acc.Cells, st.Error)
	}
	for i, cr := range st.Results {
		exec := cr.Result.ExecTime
		got := samples[i]
		if want := int(exec/sampleWindow) + 1; len(got) != want {
			t.Errorf("cell %d (%d cycles): %d sample windows, want %d", i, exec, len(got), want)
			continue
		}
		var hits uint64
		var misses [obs.NumMissClasses]uint64
		for w, se := range got {
			start := uint64(w) * sampleWindow
			end := min(start+sampleWindow, exec)
			if se.Window != uint64(w) || se.Sample.Start != start || se.Sample.End != end {
				t.Errorf("cell %d: window %d is #%d [%d, %d), want [%d, %d)",
					i, w, se.Window, se.Sample.Start, se.Sample.End, start, end)
			}
			hits += se.Sample.Hits
			for k, m := range se.Sample.Misses {
				misses[k] += m
			}
		}
		tot := cr.Result.Totals()
		if hits != tot.Hits {
			t.Errorf("cell %d: samples count %d hits, result %d", i, hits, tot.Hits)
		}
		for k := range misses {
			if misses[k] != tot.Misses[k] {
				t.Errorf("cell %d: samples count %d %s misses, result %d",
					i, misses[k], obs.MissClass(k), tot.Misses[k])
			}
		}
	}
}

// TestTraceEndpoint: a simulate request joins the caller's trace context,
// the job's spans land under it, and GET /v1/trace exports them — raw
// and as Perfetto trace-event JSON.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	// A caller-minted context: the server must join it, not mint its own.
	parent := obs.NewTrace()
	b, _ := json.Marshal(SimulateRequest{
		Params: &testParams, App: "MP3D", Algorithm: "RANDOM", Procs: 2,
	})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(obs.TraceHeader, parent.HeaderValue())
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}
	var sr SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Trace != parent.Trace {
		t.Fatalf("response trace %q, want caller's %q", sr.Trace, parent.Trace)
	}
	echoed, ok := obs.ParseTrace(resp.Header.Get(obs.TraceHeader))
	if !ok || echoed.Trace != parent.Trace {
		t.Errorf("response header %q does not carry trace %q",
			resp.Header.Get(obs.TraceHeader), parent.Trace)
	}

	// Raw span export: every span in the trace, request span parented on
	// the caller's context, and the expected pipeline stages present.
	var tsp TraceSpans
	if r := getJSON(t, ts.URL+"/v1/trace/"+parent.Trace+"?format=spans", &tsp); r.StatusCode != http.StatusOK {
		t.Fatalf("trace export: status %d", r.StatusCode)
	}
	if len(tsp.Spans) == 0 {
		t.Fatal("trace export returned no spans")
	}
	names := map[string]bool{}
	var root *obs.Span
	for i, sp := range tsp.Spans {
		if sp.Trace != parent.Trace {
			t.Errorf("span %q carries trace %q, want %q", sp.Name, sp.Trace, parent.Trace)
		}
		if sp.Service != "mtserve" {
			t.Errorf("span %q carries service %q, want mtserve", sp.Name, sp.Service)
		}
		names[sp.Name] = true
		if strings.HasPrefix(sp.Name, "simulate ") {
			root = &tsp.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no simulate root span in trace")
	}
	if root.Parent != parent.Span {
		t.Errorf("request span parent %q, want caller span %q", root.Parent, parent.Span)
	}
	for _, want := range []string{"queue wait", "cell MP3D/RANDOM/p2", "engine guarded", "cache lookup"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}

	// Perfetto export: valid trace-event JSON, one process row, every
	// span an event.
	var pf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if r := getJSON(t, ts.URL+"/v1/trace/"+parent.Trace, &pf); r.StatusCode != http.StatusOK {
		t.Fatalf("perfetto export: status %d", r.StatusCode)
	}
	if pf.OtherData["trace_id"] != parent.Trace {
		t.Errorf("perfetto trace_id %v, want %q", pf.OtherData["trace_id"], parent.Trace)
	}
	var spans int
	for _, ev := range pf.TraceEvents {
		if ev.Ph == "X" || ev.Ph == "i" {
			spans++
		}
	}
	if spans != len(tsp.Spans) {
		t.Errorf("perfetto export has %d span events, raw export %d spans", spans, len(tsp.Spans))
	}

	// An unknown trace answers 404.
	if r := getJSON(t, ts.URL+"/v1/trace/0000000000000000", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", r.StatusCode)
	}
}
