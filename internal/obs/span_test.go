package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanContextHeader: round trip through the Mtsim-Trace wire format.
func TestSpanContextHeader(t *testing.T) {
	root := NewTrace()
	if !root.Valid() || root.Parent != "" {
		t.Fatalf("NewTrace() = %+v, want valid root", root)
	}
	parsed, ok := ParseTrace(root.HeaderValue())
	if !ok || parsed.Trace != root.Trace || parsed.Span != root.Span {
		t.Fatalf("ParseTrace(%q) = %+v, %v", root.HeaderValue(), parsed, ok)
	}
	child := root.Child()
	if child.Trace != root.Trace || child.Parent != root.Span || child.Span == root.Span {
		t.Errorf("Child() = %+v, want same trace, parent=%s", child, root.Span)
	}
	for _, bad := range []string{"", "xyz", "deadbeef-cafe", strings.Repeat("g", 16) + "-" + strings.Repeat("a", 16), root.Trace + "_" + root.Span} {
		if _, ok := ParseTrace(bad); ok {
			t.Errorf("ParseTrace(%q) accepted malformed header", bad)
		}
	}
}

// TestSpanStoreBounded: exceeding the span budget evicts whole oldest
// traces, never the trace currently being recorded.
func TestSpanStoreBounded(t *testing.T) {
	s := NewSpanStore(4)
	old := NewTrace()
	for i := 0; i < 3; i++ {
		sp := s.Start(old, "svc", "op")
		sp.End()
	}
	cur := NewTrace()
	for i := 0; i < 4; i++ {
		sp := s.Start(cur, "svc", "op")
		sp.End()
	}
	if got := len(s.Trace(old.Trace)); got != 0 {
		t.Errorf("old trace kept %d spans, want evicted", got)
	}
	if got := len(s.Trace(cur.Trace)); got != 4 {
		t.Errorf("current trace has %d spans, want 4", got)
	}
	if s.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", s.Dropped())
	}
}

// TestSpanStoreNilSafe: ActiveSpan methods tolerate a nil handle, the
// idiom for telemetry-disabled servers.
func TestSpanStoreNilSafe(t *testing.T) {
	var a *ActiveSpan
	a.End()
	a.SetNote("x")
	if a.Context().Valid() {
		t.Error("nil handle returned a valid context")
	}
}

// TestWritePerfetto: the exported trace-event JSON is deterministic,
// groups spans into one process row per service, and spreads overlapping
// spans across thread tracks.
func TestWritePerfetto(t *testing.T) {
	base := time.Now()
	tr := "0123456789abcdef"
	spans := []Span{
		{Trace: tr, ID: "a000000000000000", Service: "mtcoord", Name: "sweep", StartUs: base.UnixMicro(), DurUs: 5000},
		{Trace: tr, ID: "b000000000000000", Parent: "a000000000000000", Service: "w0", Name: "cell fft", StartUs: base.UnixMicro() + 100, DurUs: 2000},
		// Overlaps the first w0 span: must land on a second track.
		{Trace: tr, ID: "c000000000000000", Parent: "a000000000000000", Service: "w0", Name: "cell lu", StartUs: base.UnixMicro() + 200, DurUs: 2000},
		// Instant event.
		{Trace: tr, ID: "d000000000000000", Parent: "a000000000000000", Service: "mtcoord", Name: "requeue", StartUs: base.UnixMicro() + 300},
	}

	var b1, b2 strings.Builder
	if err := WritePerfetto(&b1, tr, spans); err != nil {
		t.Fatal(err)
	}
	// Same spans in a different input order must render identical bytes.
	shuffled := []Span{spans[2], spans[0], spans[3], spans[1]}
	if err := WritePerfetto(&b2, tr, shuffled); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("export is input-order sensitive")
	}

	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(b1.String()), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.OtherData["trace_id"] != tr {
		t.Errorf("trace_id = %v", f.OtherData["trace_id"])
	}
	procNames := map[string]bool{}
	tids := map[string]map[float64]bool{}
	for _, ev := range f.TraceEvents {
		if ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			procNames[args["name"].(string)] = true
		}
		if ev["cat"] == "span" {
			args := ev["args"].(map[string]any)
			svc := "mtcoord"
			if strings.HasPrefix(args["id"].(string), "b") || strings.HasPrefix(args["id"].(string), "c") {
				svc = "w0"
			}
			if tids[svc] == nil {
				tids[svc] = map[float64]bool{}
			}
			tids[svc][ev["tid"].(float64)] = true
		}
	}
	if !procNames["mtcoord"] || !procNames["w0"] {
		t.Errorf("process names = %v, want mtcoord and w0", procNames)
	}
	if len(tids["w0"]) != 2 {
		t.Errorf("overlapping w0 spans used %d tracks, want 2", len(tids["w0"]))
	}
}

// TestSpanStoreAddSpanAndEvent: explicit-interval and instant records.
func TestSpanStoreAddSpanAndEvent(t *testing.T) {
	s := NewSpanStore(16)
	root := NewTrace()
	t0 := time.Now()
	s.AddSpan(root, "w0", "queue wait", t0, t0.Add(3*time.Millisecond))
	s.AddEvent(root, "mtcoord", "requeue", "MP3D/RANDOM/p4 off w0")
	spans := s.Trace(root.Trace)
	if len(spans) != 2 {
		t.Fatalf("stored %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if sp.Parent != root.Span {
			t.Errorf("span %q parent = %q, want %q", sp.Name, sp.Parent, root.Span)
		}
		switch sp.Name {
		case "queue wait":
			if sp.DurUs != 3000 {
				t.Errorf("queue wait dur = %d, want 3000", sp.DurUs)
			}
		case "requeue":
			if sp.DurUs != 0 || sp.Note == "" {
				t.Errorf("requeue event = %+v, want instant with note", sp)
			}
		}
	}
}
