package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The telemetry endpoints, part of the handler set both daemons serve
// (handlers.go):
//
//	GET /v1/jobs/{id}/events  SSE stream of job/cell/sample events
//	GET /v1/trace/{id}        Perfetto trace-event JSON for one trace ID
//	                          (?format=spans for the raw span list)
//
// Each daemon publishes its own events and gathers its own spans; the
// coordinator's Spans merges every live worker's spans into the trace
// before rendering.
//
// SSE semantics: the stream opens with a "job" snapshot event, then
// relays bus events for the job. The bus drops events on slow
// subscribers (<prefix>_stream_dropped_events_total counts them; Seq
// gaps reveal the loss), but the terminal "job" event is delivered
// out-of-band off the job's done channel, so every stream ends with the
// job's final state no matter what was dropped in between.

// JobEvent is the "job" SSE event: a job-level state snapshot.
type JobEvent struct {
	Job       string `json:"job"`
	Status    string `json:"status"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Error     string `json:"error,omitempty"`
}

// CellEvent is the "cell" SSE event: one cell reached a terminal state.
type CellEvent struct {
	Job  string `json:"job"`
	Cell int    `json:"cell"`
	// Worker is the executing worker's ID on coordinator streams; empty
	// on a worker's own stream (the worker is the stream).
	Worker    string `json:"worker,omitempty"`
	App       string `json:"app"`
	Algorithm string `json:"algorithm,omitempty"`
	Procs     int    `json:"procs"`
	State     string `json:"state"`
	Key       string `json:"key,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SampleEvent is the "sample" SSE event: one Sampler window of a
// streaming cell.
type SampleEvent struct {
	Job    string     `json:"job"`
	Cell   int        `json:"cell"`
	Window uint64     `json:"window"`
	Sample obs.Sample `json:"sample"`
}

// sampleWindow is the width, in simulated cycles, of the windows a cell
// streams as "sample" events while its job has an SSE subscriber.
const sampleWindow = 100_000

// TraceSpans is the GET /v1/trace/{id}?format=spans reply; the
// coordinator uses it to merge worker spans into one timeline.
type TraceSpans struct {
	Trace string     `json:"trace"`
	Spans []obs.Span `json:"spans"`
}

// JobTopic names a job's bus topic (both daemons publish under it).
func JobTopic(id string) string { return "job:" + id }

// cellLabel names a cell for spans and logs.
func cellLabel(c cellSpec) string {
	alg := c.algorithm
	if alg == "" && c.explicitPlacement != nil {
		alg = c.explicitPlacement.Algorithm
	}
	return fmt.Sprintf("%s/%s/p%d", c.app, alg, c.procs)
}

// JobEventOf projects a status snapshot into its SSE form (also the
// coordinator's published job events).
func JobEventOf(st JobStatus) JobEvent {
	return JobEvent{Job: st.Job, Status: st.Status, Cells: st.Cells, Completed: st.Completed, Error: st.Error}
}

// TerminalStatus reports whether a wire job status is final.
func TerminalStatus(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusRetriable, StatusCanceled:
		return true
	}
	return false
}

// sseKeepalive is the comment-ping interval holding idle streams open
// through proxies.
const sseKeepalive = 15 * time.Second

// sseBuffer is the per-subscriber event buffer; a client slower than
// this many outstanding events starts losing intermediate ones.
const sseBuffer = 256

// writeSSE writes one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev obs.Event) error {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}

// handleJobEvents streams a job's progress as server-sent events: a
// "job" snapshot first, bus events after, and the terminal state
// delivered off the job's done channel even if the bus dropped
// everything.
func (a *api) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.ex.LookupJob(id)
	if !ok {
		WriteError(w, unknownJob(id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, errors.New("streaming unsupported"))
		return
	}

	// Subscribe before the snapshot so no transition can fall between
	// snapshot and stream.
	sub := a.bus.Subscribe(JobTopic(id), sseBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	st := job.Snapshot()
	if err := writeSSE(w, obs.Event{Kind: "job", Data: JobEventOf(st)}); err != nil {
		return
	}
	fl.Flush()
	if TerminalStatus(st.Status) {
		return
	}

	// relay writes one bus event and reports whether the stream is over:
	// the client is gone, or the event was the job's terminal state.
	relay := func(ev obs.Event) bool {
		if err := writeSSE(w, ev); err != nil {
			return true
		}
		fl.Flush()
		je, ok := ev.Data.(JobEvent)
		return ok && TerminalStatus(je.Status)
	}
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case ev := <-sub.C():
			if relay(ev) {
				return
			}
		case <-job.Done():
			// Events published before the job ended (its last cells'
			// samples and cell events) may still sit in the buffer:
			// relay them before the final state.
			for {
				select {
				case ev := <-sub.C():
					if relay(ev) {
						return
					}
				default:
					_ = writeSSE(w, obs.Event{Kind: "job", Data: JobEventOf(job.Snapshot())})
					fl.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// handleTrace exports one trace as Perfetto trace-event JSON (or the raw
// span list with ?format=spans).
func (a *api) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := a.ex.Spans(id)
	if len(spans) == 0 {
		WriteError(w, &Error{Status: http.StatusNotFound, Message: "unknown trace " + id})
		return
	}
	if r.URL.Query().Get("format") == "spans" {
		WriteJSON(w, http.StatusOK, TraceSpans{Trace: id, Spans: spans})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WritePerfetto(w, id, spans)
}
