package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// ---- SSE plumbing (coordinator streams, same wire format as workers) -----

type sseEvent struct {
	kind string
	data []byte
}

// openSSE attaches to a coordinator event stream; the channel closes when
// the server ends the stream.
func openSSE(t *testing.T, url string) (<-chan sseEvent, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("events stream: status %d", resp.StatusCode)
	}
	ch := make(chan sseEvent, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.kind != "" {
					ch <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				ev.kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = []byte(strings.TrimPrefix(line, "data: "))
			}
		}
	}()
	return ch, cancel
}

// fetchTraceSpans pulls the merged raw span list for one trace from the
// coordinator.
func fetchTraceSpans(t *testing.T, base, trace string) serve.TraceSpans {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace/" + trace + "?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace export: status %d", resp.StatusCode)
	}
	var tsp serve.TraceSpans
	if err := json.NewDecoder(resp.Body).Decode(&tsp); err != nil {
		t.Fatal(err)
	}
	return tsp
}

// ---- tests ---------------------------------------------------------------

// TestClusterTracePropagation: one sweep through a coordinator and three
// workers (one straggler, so stealing fires) must land on a single trace:
// every span — coordinator scheduling, worker queueing, engine runs —
// carries the trace ID the sweep was accepted with, worker lease spans
// parent under the coordinator's lease spans, and the steal shows up as
// an instant event on the same timeline.
func TestClusterTracePropagation(t *testing.T) {
	tc := startCoordinator(t, testCoordOptions())
	tc.addWorker("slow", serve.Options{
		Workers:    1,
		BeforeCell: func() { time.Sleep(150 * time.Millisecond) },
	})
	tc.addWorker("fast0", serve.Options{Workers: 2})
	tc.addWorker("fast1", serve.Options{Workers: 2})
	tc.waitLive(3)

	apps, algs, procs := loadgen.ClusterDims()
	cl := tc.client()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	acc, err := cl.Sweep(&serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Trace == "" {
		t.Fatal("sweep accepted without a trace ID")
	}
	st, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	if tc.coord.Metrics().Snapshot()["coordinator_steals_total"] == 0 {
		t.Fatal("no cells were stolen from the straggler; the scenario did not exercise stealing")
	}

	tsp := fetchTraceSpans(t, tc.ts.URL, acc.Trace)
	services := map[string]bool{}
	coordLeaseSpans := map[string]bool{} // span ID -> is a coordinator lease span
	var workerLease, engineRuns, steals int
	for _, sp := range tsp.Spans {
		if sp.Trace != acc.Trace {
			t.Fatalf("span %s/%q carries trace %q, want %q", sp.Service, sp.Name, sp.Trace, acc.Trace)
		}
		services[sp.Service] = true
		switch {
		case sp.Service == coordService && strings.HasPrefix(sp.Name, "lease "):
			coordLeaseSpans[sp.ID] = true
		case sp.Service == coordService && sp.Name == "steal":
			steals++
		case sp.Service != coordService && strings.HasPrefix(sp.Name, "lease "):
			workerLease++
		case strings.HasPrefix(sp.Name, "engine "):
			engineRuns++
		}
	}
	if !services[coordService] {
		t.Error("no coordinator spans in the merged trace")
	}
	workerCount := 0
	for _, id := range []string{"slow", "fast0", "fast1"} {
		if services[id] {
			workerCount++
		}
	}
	if workerCount < 2 {
		t.Errorf("merged trace covers %d workers, want >= 2 (services: %v)", workerCount, services)
	}
	if steals == 0 {
		t.Error("stealing fired but recorded no steal span")
	}
	if engineRuns == 0 {
		t.Error("no engine spans from any worker in the merged trace")
	}
	// Cross-tier parenting: at least one worker lease span must cite a
	// coordinator lease span as its parent — the header actually rode the
	// lease grant.
	linked := 0
	for _, sp := range tsp.Spans {
		if sp.Service != coordService && strings.HasPrefix(sp.Name, "lease ") && coordLeaseSpans[sp.Parent] {
			linked++
		}
	}
	if workerLease == 0 || linked == 0 {
		t.Errorf("%d worker lease spans, %d parented under coordinator lease spans — trace context did not propagate", workerLease, linked)
	}
}

// TestClusterTraceChaos is the acceptance scenario: a 4-worker sweep, one
// worker killed mid-flight. The coordinator's SSE stream must deliver the
// terminal state without any status polling, and GET /v1/trace must still
// render a single Perfetto-loadable timeline covering the coordinator and
// every surviving worker — the dead worker's spans are simply absent.
func TestClusterTraceChaos(t *testing.T) {
	tc := startCoordinator(t, testCoordOptions())
	// w0 is a single-slot straggler so it reliably holds leased cells
	// when the kill lands.
	tc.addWorker("w0", serve.Options{
		Workers:    1,
		BeforeCell: func() { time.Sleep(100 * time.Millisecond) },
	})
	for _, id := range []string{"w1", "w2", "w3"} {
		tc.addWorker(id, serve.Options{Workers: 1})
	}
	tc.waitLive(4)

	apps, algs, procs := loadgen.ClusterDims()
	cl := tc.client()
	params := serve.Params{Scale: testScale, Seed: testSeed}
	acc, err := cl.Sweep(&serve.SweepRequest{
		Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The stream itself is the progress signal: kill w0 once the first
	// cell completion arrives, then keep reading until the terminal job
	// event. GET /v1/jobs/{id} is never called.
	events, cancel := openSSE(t, tc.ts.URL+"/v1/jobs/"+acc.Job+"/events")
	defer cancel()
	var terminal *serve.JobEvent
	killed := false
	for ev := range events {
		switch ev.kind {
		case "cell":
			if !killed {
				tc.workers[0].kill()
				killed = true
			}
		case "job":
			var je serve.JobEvent
			if err := json.Unmarshal(ev.data, &je); err != nil {
				t.Fatal(err)
			}
			if serve.TerminalStatus(je.Status) {
				je := je
				terminal = &je
			}
		}
	}
	if !killed {
		t.Fatal("stream delivered no cell events; the kill never landed")
	}
	if terminal == nil {
		t.Fatal("stream closed without a terminal job event")
	}
	if terminal.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s after worker kill: %s", terminal.Status, terminal.Error)
	}
	if terminal.Completed != acc.Cells {
		t.Errorf("terminal event reports %d/%d cells", terminal.Completed, acc.Cells)
	}

	// One Perfetto-loadable timeline: coordinator plus all three
	// survivors, every span event on the sweep's trace ID.
	resp, err := http.Get(tc.ts.URL + "/v1/trace/" + acc.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perfetto export: status %d", resp.StatusCode)
	}
	var pf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pf); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if pf.OtherData["trace_id"] != acc.Trace {
		t.Errorf("perfetto trace_id %v, want %q", pf.OtherData["trace_id"], acc.Trace)
	}
	services := map[string]bool{}
	spanEvents := 0
	for _, ev := range pf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			if name, ok := ev.Args["name"].(string); ok {
				services[name] = true
			}
		case ev.Ph == "X" || ev.Ph == "i":
			spanEvents++
			if tr, _ := ev.Args["trace"].(string); tr != acc.Trace {
				t.Fatalf("span event %q carries trace %v, want %q", ev.Name, ev.Args["trace"], acc.Trace)
			}
		}
	}
	if spanEvents == 0 {
		t.Fatal("perfetto export has no span events")
	}
	for _, svc := range []string{coordService, "w1", "w2", "w3"} {
		if !services[svc] {
			t.Errorf("merged timeline is missing surviving service %q (have %v)", svc, services)
		}
	}
}
