package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Tracer is a Probe that records a run as Chrome trace-event JSON, the
// format Perfetto (https://ui.perfetto.dev) and chrome://tracing load
// directly. Each simulated processor becomes a process row, each thread a
// thread track within it: "run" slices while the context occupies the
// pipeline, "stall" slices while it waits on memory, instant markers for
// cache misses and coherence messages, and a counter track for the
// engine's event-queue depth.
//
// Trace-event timestamps are microseconds; the exporter writes one
// simulated cycle as one microsecond, so Perfetto's "us" readouts are
// cycles. Every event is recorded, so the tracer is intended for the
// small runs a human actually wants to look at — attach a Sampler
// instead for aggregate views of long runs.
//
// Like Sampler, a Tracer is single-owner: the goroutine running the
// engine feeds it and exports it after the run. Not safe for concurrent
// use.
//
//mtlint:guard external -- single-owner: fed and exported by the one goroutine running the engine
type Tracer struct {
	meta   RunMeta
	exec   uint64
	events []traceEvent
	// open[thread] is the running slice's start (or -1) and processor,
	// mirroring Sampler's slice bookkeeping.
	openStart []int64
	openProc  []int32
	// threadProc records where each thread first ran, for thread_name
	// metadata.
	threadProc []int32
}

// traceEvent is one Chrome trace-event record. Field order is the JSON
// output order; the golden test pins it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON Object Format of the trace-event spec.
type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Meta returns the run metadata captured at RunBegin.
func (tr *Tracer) Meta() RunMeta { return tr.meta }

// Events returns the number of recorded trace events (excluding the
// metadata records synthesized at export).
func (tr *Tracer) Events() int { return len(tr.events) }

// RunBegin implements Probe.
func (tr *Tracer) RunBegin(meta RunMeta) {
	tr.meta = meta
	tr.exec = 0
	tr.events = tr.events[:0]
	tr.openStart = make([]int64, meta.Threads)
	tr.openProc = make([]int32, meta.Threads)
	tr.threadProc = make([]int32, meta.Threads)
	for i := range tr.openStart {
		tr.openStart[i] = -1
		tr.threadProc[i] = -1
	}
}

// RunEnd implements Probe.
func (tr *Tracer) RunEnd(execTime uint64) {
	tr.exec = execTime
	for thread, start := range tr.openStart {
		if start >= 0 {
			tr.slice("run", "sched", uint64(start), execTime, int(tr.openProc[thread]), thread)
			tr.openStart[thread] = -1
		}
	}
}

func (tr *Tracer) slice(name, cat string, from, to uint64, proc, thread int) {
	dur := to - from
	tr.events = append(tr.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", Ts: from, Dur: &dur, Pid: proc, Tid: thread,
	})
}

// ThreadRun implements Probe.
func (tr *Tracer) ThreadRun(t uint64, proc, thread int) {
	if thread >= len(tr.openStart) {
		return
	}
	tr.openStart[thread] = int64(t)
	tr.openProc[thread] = int32(proc)
	if tr.threadProc[thread] < 0 {
		tr.threadProc[thread] = int32(proc)
	}
}

// closeSlice emits the thread's open running slice ending at t, if any.
func (tr *Tracer) closeSlice(t uint64, proc, thread int) {
	if thread >= len(tr.openStart) {
		return
	}
	if start := tr.openStart[thread]; start >= 0 {
		tr.slice("run", "sched", uint64(start), t, proc, thread)
		tr.openStart[thread] = -1
	}
}

// ThreadPause implements Probe.
func (tr *Tracer) ThreadPause(t uint64, proc, thread int, resumeAt uint64) {
	tr.closeSlice(t, proc, thread)
	tr.slice("stall", "mem", t, resumeAt, proc, thread)
}

// ThreadFinish implements Probe.
func (tr *Tracer) ThreadFinish(t uint64, proc, thread int) {
	tr.closeSlice(t, proc, thread)
	tr.events = append(tr.events, traceEvent{
		Name: "finish", Cat: "sched", Ph: "i", Ts: t, Pid: proc, Tid: thread, S: "t",
	})
}

// CacheHit implements Probe. Hits are the overwhelmingly common case and
// are not recorded individually; the run slices already show them as
// uninterrupted execution.
func (tr *Tracer) CacheHit(t uint64, proc, thread int) {}

// CacheMiss implements Probe.
func (tr *Tracer) CacheMiss(t uint64, proc, thread int, class MissClass) {
	tr.events = append(tr.events, traceEvent{
		Name: "miss:" + class.String(), Cat: "cache", Ph: "i", Ts: t, Pid: proc, Tid: thread, S: "t",
	})
}

// Invalidation implements Probe. The marker lands on the victim
// processor's row; args carry the writer.
func (tr *Tracer) Invalidation(t uint64, from, to int) {
	tr.events = append(tr.events, traceEvent{
		Name: "invalidate", Cat: "coherence", Ph: "i", Ts: t, Pid: to, Tid: 0, S: "p",
		Args: map[string]any{"from_proc": from},
	})
}

// Update implements Probe.
func (tr *Tracer) Update(t uint64, from, to int) {
	tr.events = append(tr.events, traceEvent{
		Name: "update", Cat: "coherence", Ph: "i", Ts: t, Pid: to, Tid: 0, S: "p",
		Args: map[string]any{"from_proc": from},
	})
}

// PairTraffic implements Probe. Pair traffic is the sum of events already
// marked individually; nothing extra to record.
func (tr *Tracer) PairTraffic(t uint64, from, to int) {}

// Migrate implements Probe. Online runs log every move in
// Result.Online.Moves; the timeline records none.
func (tr *Tracer) Migrate(t uint64, thread, from, to int) {}

// ContextSwitch implements Probe.
func (tr *Tracer) ContextSwitch(t uint64, proc int) {
	tr.events = append(tr.events, traceEvent{
		Name: "switch", Cat: "sched", Ph: "i", Ts: t, Pid: proc, Tid: 0, S: "p",
	})
}

// QueueDepth implements Probe. Depth samples become a counter track on
// the synthetic "simulator" process.
func (tr *Tracer) QueueDepth(t uint64, depth int) {
	tr.events = append(tr.events, traceEvent{
		Name: "event queue", Ph: "C", Ts: t, Pid: tr.meta.Processors, Tid: 0,
		Args: map[string]any{"depth": depth},
	})
}

// Export writes the recorded run as trace-event JSON: metadata records
// naming every process and thread, then the events in emission order.
func (tr *Tracer) Export(w io.Writer) error {
	f := traceFile{
		OtherData: map[string]any{
			"app":           tr.meta.App,
			"algorithm":     tr.meta.Algorithm,
			"engine":        tr.meta.Engine,
			"processors":    tr.meta.Processors,
			"threads":       tr.meta.Threads,
			"exec_cycles":   tr.exec,
			"cycles_per_us": 1,
		},
	}
	meta := func(name string, pid, tid int, args map[string]any) {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args,
		})
	}
	for p := 0; p < tr.meta.Processors; p++ {
		meta("process_name", p, 0, map[string]any{"name": fmt.Sprintf("Processor %d", p)})
		meta("process_sort_index", p, 0, map[string]any{"sort_index": p})
	}
	meta("process_name", tr.meta.Processors, 0, map[string]any{"name": "simulator"})
	meta("process_sort_index", tr.meta.Processors, 0, map[string]any{"sort_index": tr.meta.Processors})
	for thread, proc := range tr.threadProc {
		if proc < 0 {
			continue
		}
		meta("thread_name", int(proc), thread, map[string]any{"name": fmt.Sprintf("Thread %d", thread)})
	}
	f.TraceEvents = append(f.TraceEvents, tr.events...)

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	return bw.Flush()
}
