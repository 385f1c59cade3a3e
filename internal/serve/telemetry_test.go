package serve

import (
	"encoding/json"
	"net/http"
	"strings"
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

// TestJobEventsTerminalWithoutBus: with telemetry disabled there is no
// bus at all, yet a stream must still open, deliver the snapshot, and
// end with the terminal state off the job's done channel.
func TestJobEventsTerminalWithoutBus(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers:          2,
		DisableTelemetry: true,
		BeforeCell:       func() { time.Sleep(10 * time.Millisecond) },
	})
	req := SweepRequest{
		Params: &testParams,
		Apps:   []string{"MP3D"}, Algorithms: []string{"RANDOM"}, Procs: []int{2, 4},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Trace != "" {
		t.Errorf("telemetry disabled but sweep minted trace %q", acc.Trace)
	}

	events, cancel := obstest.OpenSSE(t, ts.URL+"/v1/jobs/"+acc.Job+"/events")
	defer cancel()
	var last JobEvent
	for ev := range events {
		if ev.Kind != "job" {
			t.Errorf("unexpected %q event with telemetry disabled", ev.Kind)
			continue
		}
		if err := json.Unmarshal(ev.Data, &last); err != nil {
			t.Fatal(err)
		}
	}
	if !TerminalStatus(last.Status) {
		t.Fatalf("stream ended on non-terminal status %q", last.Status)
	}
	if last.Status != StatusDone {
		t.Fatalf("terminal status %q: %s", last.Status, last.Error)
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

	// Unknown traces and disabled telemetry both answer 404.
	if r := getJSON(t, ts.URL+"/v1/trace/0000000000000000", nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", r.StatusCode)
	}
	_, off := newTestServer(t, Options{Workers: 1, DisableTelemetry: true})
	if r := getJSON(t, off.URL+"/v1/trace/"+parent.Trace, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("telemetry disabled: trace status %d, want 404", r.StatusCode)
	}
}
