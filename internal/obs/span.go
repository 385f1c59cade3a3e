package obs

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing for the serving tiers. A SpanContext (trace ID +
// span ID + parent) is minted per request in mtserve/mtcoord, propagated
// through the Mtsim-Trace HTTP header on every call the coordinator
// proxies or dispatches, and every tier records its spans into
// a bounded in-process SpanStore. GET /v1/trace/{id} merges the stores
// and renders Perfetto trace-event JSON, so one sweep's coordinator
// scheduling, per-worker queueing, cache lookups, and engine runs land
// on a single timeline.
//
// Unlike the simulation probes (which run on simulated cycles and must
// be deterministic), spans measure the service itself: IDs are random
// and timestamps are wall-clock microseconds. The determinism contract
// covers the *rendering* — same stored spans, same exported bytes.

// TraceHeader is the HTTP header carrying a SpanContext between tiers,
// formatted as "<trace>-<span>" (16 lowercase hex chars each).
const TraceHeader = "Mtsim-Trace"

// spanIDHexLen is the length of one ID half: 8 random bytes, hex-encoded.
const spanIDHexLen = 16

// SpanContext identifies a position in a trace tree.
type SpanContext struct {
	Trace  string // shared by every span of one distributed operation
	Span   string // this operation's own ID; children cite it as Parent
	Parent string // empty at the root
}

// spanIDFallback seeds IDs when crypto/rand fails (it does not on any
// supported platform, but the telemetry layer must never panic a server).
var spanIDFallback atomic.Uint64

func newID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		v := spanIDFallback.Add(1)
		for i := range b {
			b[i] = byte(v >> (8 * uint(i)))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewTrace mints a fresh root context.
func NewTrace() SpanContext {
	return SpanContext{Trace: newID(), Span: newID()}
}

// Valid reports whether the context carries IDs.
func (c SpanContext) Valid() bool { return c.Trace != "" && c.Span != "" }

// Child returns a context for a sub-operation: same trace, fresh span ID,
// parent set to this context's span.
func (c SpanContext) Child() SpanContext {
	return SpanContext{Trace: c.Trace, Span: newID(), Parent: c.Span}
}

// HeaderValue renders the context for the Mtsim-Trace header.
func (c SpanContext) HeaderValue() string { return c.Trace + "-" + c.Span }

func validHexID(s string) bool {
	if len(s) != spanIDHexLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// ParseTrace parses a Mtsim-Trace header value.
func ParseTrace(s string) (SpanContext, bool) {
	trace, span, ok := strings.Cut(s, "-")
	if !ok || !validHexID(trace) || !validHexID(span) {
		return SpanContext{}, false
	}
	return SpanContext{Trace: trace, Span: span}, true
}

// Span is one completed operation. StartUs is wall-clock Unix
// microseconds; DurUs is 0 for instant events.
//
//mtlint:guard external -- a value: an ActiveSpan's goroutine owns its copy until End hands one to SpanStore under its lock
type Span struct {
	Trace   string `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Service string `json:"service"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// SpanStore is a bounded in-process span buffer grouped by trace ID.
// When the span budget is exceeded the oldest whole trace is evicted —
// partial traces mislead more than missing ones.
type SpanStore struct {
	mu      sync.Mutex
	max     int
	total   int
	byTrace map[string][]Span
	order   []string // trace IDs in first-seen order, for eviction
	dropped int64
}

// DefaultSpanCapacity bounds a daemon's span store: at ~20 spans per
// sweep cell this holds hundreds of recent sweeps.
const DefaultSpanCapacity = 16384

// NewSpanStore returns a store holding at most maxSpans spans.
func NewSpanStore(maxSpans int) *SpanStore {
	return &SpanStore{max: maxSpans, byTrace: make(map[string][]Span)}
}

// Add records one finished span. Spans without a trace ID are dropped.
func (s *SpanStore) Add(sp Span) {
	if sp.Trace == "" || sp.ID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byTrace[sp.Trace]; !ok {
		s.order = append(s.order, sp.Trace)
	}
	s.byTrace[sp.Trace] = append(s.byTrace[sp.Trace], sp)
	s.total++
	for s.total > s.max && len(s.order) > 1 {
		oldest := s.order[0]
		if oldest == sp.Trace {
			// Never evict the trace we are actively recording into; rotate
			// it to the back and evict the next-oldest instead.
			s.order = append(s.order[1:], oldest)
			oldest = s.order[0]
		}
		s.total -= len(s.byTrace[oldest])
		s.dropped += int64(len(s.byTrace[oldest]))
		delete(s.byTrace, oldest)
		s.order = s.order[1:]
	}
}

// Dropped returns the number of spans lost to eviction.
func (s *SpanStore) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Len returns the number of stored spans.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Trace returns the stored spans for one trace ID, sorted.
func (s *SpanStore) Trace(id string) []Span {
	s.mu.Lock()
	spans := s.byTrace[id]
	out := make([]Span, len(spans))
	copy(out, spans)
	s.mu.Unlock()
	SortSpans(out)
	return out
}

// SortSpans orders spans deterministically: by start time, then service,
// name, and ID — the order every exporter relies on.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartUs != b.StartUs {
			return a.StartUs < b.StartUs
		}
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
}

// ActiveSpan is an in-flight span handle. All methods are nil-safe.
type ActiveSpan struct {
	store *SpanStore
	sp    Span
	t0    time.Time
}

// Start opens a child span of parent and returns its handle; End records
// it.
func (s *SpanStore) Start(parent SpanContext, service, name string) *ActiveSpan {
	ctx := parent.Child()
	now := time.Now()
	return &ActiveSpan{
		store: s,
		sp: Span{
			Trace: ctx.Trace, ID: ctx.Span, Parent: ctx.Parent,
			Service: service, Name: name, StartUs: now.UnixMicro(),
		},
		t0: now,
	}
}

// AddEvent records an instant (zero-duration) child event of parent.
func (s *SpanStore) AddEvent(parent SpanContext, service, name, note string) {
	ctx := parent.Child()
	s.Add(Span{
		Trace: ctx.Trace, ID: ctx.Span, Parent: ctx.Parent,
		Service: service, Name: name, StartUs: time.Now().UnixMicro(), Note: note,
	})
}

// AddSpan records a completed span of parent covering [start, end] —
// used when the duration was measured before a store call was possible
// (queue wait, for example).
func (s *SpanStore) AddSpan(parent SpanContext, service, name string, start, end time.Time) {
	ctx := parent.Child()
	dur := end.Sub(start).Microseconds()
	if dur < 0 {
		dur = 0
	}
	s.Add(Span{
		Trace: ctx.Trace, ID: ctx.Span, Parent: ctx.Parent,
		Service: service, Name: name, StartUs: start.UnixMicro(), DurUs: dur,
	})
}

// Context returns the active span's own context, for propagating to
// sub-operations. Safe on a nil handle (returns the zero context).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.sp.Trace, Span: a.sp.ID, Parent: a.sp.Parent}
}

// SetNote attaches a short annotation rendered in the span's args.
func (a *ActiveSpan) SetNote(note string) {
	if a != nil {
		a.sp.Note = note
	}
}

// End closes the span and records it in the store. Safe on nil; calling
// End twice records twice (don't).
func (a *ActiveSpan) End() {
	if a == nil || a.store == nil {
		return
	}
	a.sp.DurUs = time.Since(a.t0).Microseconds()
	if a.sp.DurUs < 0 {
		a.sp.DurUs = 0
	}
	a.store.Add(a.sp)
}

// WritePerfetto renders spans as Chrome trace-event JSON, one process
// row per service (coordinator plus each worker) with overlapping spans
// spread across thread tracks by a greedy interval assignment. The
// output is deterministic for a given span set: spans are sorted, and
// track assignment follows the sorted order.
func WritePerfetto(w io.Writer, traceID string, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)

	// Service -> process ID, in sorted-name order.
	names := make([]string, 0, 4)
	seen := make(map[string]bool)
	for _, sp := range sorted {
		if !seen[sp.Service] {
			seen[sp.Service] = true
			names = append(names, sp.Service)
		}
	}
	sort.Strings(names)
	pidOf := make(map[string]int, len(names))
	for i, n := range names {
		pidOf[n] = i
	}

	// Normalize timestamps so the timeline starts at zero.
	var base int64
	if len(sorted) > 0 {
		base = sorted[0].StartUs
	}

	f := traceFile{
		OtherData: map[string]any{
			"trace_id": traceID,
			"services": len(names),
			"spans":    len(sorted),
		},
	}
	for i, n := range names {
		f.TraceEvents = append(f.TraceEvents,
			traceEvent{Name: "process_name", Ph: "M", Pid: i, Tid: 0, Args: map[string]any{"name": n}},
			traceEvent{Name: "process_sort_index", Ph: "M", Pid: i, Tid: 0, Args: map[string]any{"sort_index": i}},
		)
	}

	// Greedy track assignment per service: each span takes the first
	// track whose previous span ended before it starts.
	trackEnd := make(map[string][]int64, len(names))
	for _, sp := range sorted {
		pid := pidOf[sp.Service]
		ends := trackEnd[sp.Service]
		tid := -1
		for i, end := range ends {
			if end <= sp.StartUs {
				tid = i
				break
			}
		}
		if tid < 0 {
			tid = len(ends)
			ends = append(ends, 0)
		}
		ends[tid] = sp.StartUs + sp.DurUs
		trackEnd[sp.Service] = ends

		ev := traceEvent{
			Name: sp.Name, Cat: "span", Ts: uint64(sp.StartUs - base), Pid: pid, Tid: tid,
			Args: map[string]any{"trace": sp.Trace, "id": sp.ID},
		}
		if sp.Parent != "" {
			ev.Args["parent"] = sp.Parent
		}
		if sp.Note != "" {
			ev.Args["note"] = sp.Note
		}
		if sp.DurUs > 0 {
			dur := uint64(sp.DurUs)
			ev.Ph, ev.Dur = "X", &dur
		} else {
			ev.Ph, ev.S = "i", "t"
		}
		f.TraceEvents = append(f.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
