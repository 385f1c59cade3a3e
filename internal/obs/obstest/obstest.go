// Package obstest holds test helpers for validating observability
// output. It lives outside the _test.go files so the package tests of
// internal/obs, internal/serve and internal/cluster and the command
// tests (mtsim -timeline output, the daemons' job streams) share one
// trace-schema checker and one SSE reader.
package obstest

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// SSEEvent is one parsed text/event-stream record.
type SSEEvent struct {
	Kind string
	Data []byte
}

// OpenSSE attaches to an event-stream URL, such as a job's
// /v1/jobs/{id}/events, and returns a channel of parsed events. It fails
// t unless the reply is 200 with Content-Type text/event-stream. The
// channel closes when the server ends the stream or after 60 s; cancel
// tears it down early.
func OpenSSE(t testing.TB, url string) (<-chan SSEEvent, context.CancelFunc) {
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		cancel()
		t.Fatalf("events stream: content type %q", ct)
	}
	ch := make(chan SSEEvent, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var ev SSEEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.Kind != "" {
					ch <- ev
				}
				ev = SSEEvent{}
			case strings.HasPrefix(line, "event: "):
				ev.Kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.Data = []byte(strings.TrimPrefix(line, "data: "))
			}
		}
	}()
	return ch, cancel
}

// CheckTraceEventJSON asserts raw is well-formed Chrome trace-event JSON
// (object format): a traceEvents array whose records all carry name, ph,
// pid and tid; "X" slices carry ts and dur; instants carry a valid scope;
// counter events carry numeric series; and at least one event of each
// phase a real export produces (M, X, i, C) is present.
func CheckTraceEventJSON(t *testing.T, raw []byte) {
	t.Helper()
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	phases := map[string]int{}
	for i, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d: missing ph: %v", i, ev)
		}
		phases[ph]++
		if _, ok := ev["name"].(string); !ok {
			t.Errorf("event %d: missing name: %v", i, ev)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := ev[key].(float64); !ok {
				t.Errorf("event %d (%s): missing %s: %v", i, ph, key, ev)
			}
		}
		switch ph {
		case "M":
			if _, ok := ev["args"].(map[string]any); !ok {
				t.Errorf("metadata event %d: missing args: %v", i, ev)
			}
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("slice event %d: missing dur: %v", i, ev)
			}
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("slice event %d: missing ts: %v", i, ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" && s != "p" && s != "g" {
				t.Errorf("instant event %d: bad scope %q: %v", i, s, ev)
			}
		case "C":
			args, ok := ev["args"].(map[string]any)
			if !ok {
				t.Errorf("counter event %d: missing args: %v", i, ev)
				continue
			}
			for k, v := range args {
				if _, ok := v.(float64); !ok {
					t.Errorf("counter event %d: non-numeric series %q: %v", i, k, ev)
				}
			}
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in export (phases: %v)", ph, phases)
		}
	}
}
