package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"
)

// parityReply is what TestAPIParity compares between the two daemons.
type parityReply struct {
	status      int
	contentType string
	retriable   bool
	errText     string
	body        []byte
}

// rawRequest sends body to base+path as-is (nil body for GET), with no
// client-side retries, and decodes the reply's error envelope when the
// reply is JSON.
func rawRequest(t *testing.T, method, base, path string, body []byte) parityReply {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading reply: %v", method, path, err)
	}
	out := parityReply{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: data}
	if strings.HasPrefix(out.contentType, "application/json") && resp.StatusCode >= 400 {
		var er serve.ErrorResponse
		if json.Unmarshal(data, &er) == nil {
			out.retriable, out.errText = er.Retriable, er.Error
		}
	}
	return out
}

// parityRow is one request sent byte-for-byte to both daemons.
type parityRow struct {
	name   string
	method string
	path   string
	body   []byte
	// sameText also compares the error text (decode and validation rows).
	sameText bool
	// sameBody compares the whole reply body.
	sameBody bool
}

// checkParity sends every row to the worker and the coordinator and
// fails on any difference in status, Content-Type or retriable (and in
// error text or body where the row asks).
func checkParity(t *testing.T, worker, coord string, rows []parityRow) {
	t.Helper()
	for _, row := range rows {
		w := rawRequest(t, row.method, worker, row.path, row.body)
		c := rawRequest(t, row.method, coord, row.path, row.body)
		if w.status != c.status || w.contentType != c.contentType || w.retriable != c.retriable {
			t.Errorf("%s: worker %d %q retriable=%t (%s), coordinator %d %q retriable=%t (%s)",
				row.name, w.status, w.contentType, w.retriable, w.errText,
				c.status, c.contentType, c.retriable, c.errText)
			continue
		}
		if row.sameText && w.errText != c.errText {
			t.Errorf("%s: worker error %q, coordinator error %q", row.name, w.errText, c.errText)
		}
		if row.sameBody && !bytes.Equal(w.body, c.body) {
			t.Errorf("%s: bodies differ:\nworker      %s\ncoordinator %s", row.name, w.body, c.body)
		}
	}
}

// TestAPIParity: one raw-bytes table sent to a worker and to a
// coordinator fronting that worker. The two daemons serve one public
// API, so every row — decode and validation failures, method and
// lookup misses, the catalog, and refusals once both have drained —
// must answer alike.
func TestAPIParity(t *testing.T) {
	tc := startCoordinator(t, testCoordOptions())
	w := tc.addWorker("w0", serve.Options{Workers: 2})
	tc.waitLive(1)

	valid := map[string]string{
		"/v1/simulate": `{"app":"MP3D","algorithm":"RANDOM","procs":2}`,
		"/v1/sweep":    `{"apps":["MP3D"],"algorithms":["RANDOM"],"procs":[2]}`,
		"/v1/advise":   `{"app":"MP3D","procs":2}`,
	}
	zeroProcs := map[string]string{
		"/v1/simulate": `{"app":"MP3D","algorithm":"RANDOM","procs":0}`,
		"/v1/sweep":    `{"apps":["MP3D"],"algorithms":["RANDOM"],"procs":[0]}`,
		"/v1/advise":   `{"app":"MP3D","procs":0}`,
	}
	unknownApp := map[string]string{
		"/v1/simulate": `{"app":"NoSuchApp","algorithm":"RANDOM","procs":2}`,
		"/v1/sweep":    `{"apps":["NoSuchApp"],"algorithms":["RANDOM"],"procs":[2]}`,
		"/v1/advise":   `{"app":"NoSuchApp","procs":2}`,
	}
	posts := []string{"/v1/simulate", "/v1/sweep", "/v1/advise"}
	oversized := []byte(`{"app":"` + strings.Repeat("a", serve.MaxRequestBytes) + `"}`)
	// Completion is learned from /v1/jobs/{id}/events or by polling;
	// a sweep still naming a push target gets a plain 400.
	webhookSweep := []byte(`{"apps":["MP3D"],"algorithms":["RANDOM"],"procs":[2],"webhook_url":"http://h/"}`)

	var running []parityRow
	for _, p := range posts {
		running = append(running,
			parityRow{name: p + " malformed", method: http.MethodPost, path: p, body: []byte(`{"app":`), sameText: true},
			parityRow{name: p + " trailing data", method: http.MethodPost, path: p, body: []byte(valid[p] + ` {}`), sameText: true},
			parityRow{name: p + " unknown field", method: http.MethodPost, path: p, body: []byte(`{"engine":"fast"}`), sameText: true},
			parityRow{name: p + " oversized", method: http.MethodPost, path: p, body: oversized, sameText: true},
			parityRow{name: p + " procs 0", method: http.MethodPost, path: p, body: []byte(zeroProcs[p]), sameText: true},
			parityRow{name: p + " unknown app", method: http.MethodPost, path: p, body: []byte(unknownApp[p]), sameText: true},
		)
	}
	running = append(running,
		parityRow{name: "GET /v1/simulate", method: http.MethodGet, path: "/v1/simulate", sameBody: true},
		parityRow{name: "unknown job", method: http.MethodGet, path: "/v1/jobs/sw-doesnotexist0000", sameText: true},
		parityRow{name: "unknown job events", method: http.MethodGet, path: "/v1/jobs/sw-doesnotexist0000/events", sameText: true},
		parityRow{name: "unknown trace", method: http.MethodGet, path: "/v1/trace/0000000000000000", sameText: true},
		parityRow{name: "placements", method: http.MethodGet, path: "/v1/placements", sameBody: true},
		parityRow{name: "/v1/sweep webhook_url", method: http.MethodPost, path: "/v1/sweep", body: webhookSweep, sameText: true},
	)
	checkParity(t, w.ts.URL, tc.ts.URL, running)
	if r := rawRequest(t, http.MethodPost, w.ts.URL, "/v1/sweep", webhookSweep); r.status != http.StatusBadRequest ||
		r.retriable || !strings.Contains(r.errText, `unknown field "webhook_url"`) {
		t.Errorf("sweep with webhook_url: %d retriable=%t %q, want a non-retriable 400 for the unknown field",
			r.status, r.retriable, r.errText)
	}

	// Drained: new work is refused first, whatever the body. The two
	// daemons name themselves in the refusal, so only status,
	// Content-Type and retriable must agree.
	w.srv.Drain()
	tc.coord.Drain()
	var drained []parityRow
	for _, p := range posts {
		drained = append(drained,
			parityRow{name: "drained " + p + " valid", method: http.MethodPost, path: p, body: []byte(valid[p])},
			parityRow{name: "drained " + p + " malformed", method: http.MethodPost, path: p, body: []byte(`{"app":`)},
		)
	}
	drained = append(drained, parityRow{name: "drained /healthz", method: http.MethodGet, path: "/healthz"})
	checkParity(t, w.ts.URL, tc.ts.URL, drained)
}
