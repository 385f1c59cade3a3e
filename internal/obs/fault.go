package obs

// Resilience events: the sim watchdog reports faults through the same
// probe plumbing as architectural events, so a timeline or counter view
// of a run also shows when a watchdog fired. Faults are rare, cold-path
// events — none of the emission sites sit on the per-event hot loop.

// FaultKind classifies a resilience event.
type FaultKind uint8

const (
	// FaultWatchdog: a run exceeded its step budget or was canceled.
	FaultWatchdog FaultKind = iota
	// FaultInjected: a deliberately injected fault (tests only).
	FaultInjected
	// NumFaultKinds is the number of fault kinds.
	NumFaultKinds
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultWatchdog:
		return "watchdog"
	case FaultInjected:
		return "injected"
	}
	return "unknown"
}

// Fault implements Probe.
func (m multi) Fault(t uint64, kind FaultKind) {
	for _, p := range m {
		p.Fault(t, kind)
	}
}

// Fault implements Probe.
func (c *Counter) Fault(t uint64, kind FaultKind) {
	if kind < NumFaultKinds {
		c.Faults[kind]++
	}
}

// Fault implements Probe. Faults are not windowed: they are rare,
// run-level events, and folding them into Sample would churn the CSV
// schema every consumer of Table() parses. Instead each mark lands in a
// bounded side list (see Sampler.Faults) surfaced through Table()
// metadata, so CSV/SVG timelines still show when a watchdog fired.
// Fault deliberately does not materialize windows: a mark at or past the
// run's end (the watchdog fires at the budget edge) must not extend the
// series.
func (s *Sampler) Fault(t uint64, kind FaultKind) {
	if len(s.faults) >= maxFaultMarks {
		s.faultsDropped++
		return
	}
	s.faults = append(s.faults, FaultMark{T: t, Kind: kind})
}

// Fault implements Probe. The marker lands on the synthetic "simulator"
// process row, scoped global so Perfetto draws it across the whole view.
func (tr *Tracer) Fault(t uint64, kind FaultKind) {
	tr.events = append(tr.events, traceEvent{
		Name: "fault:" + kind.String(), Cat: "resilience", Ph: "i", Ts: t,
		Pid: tr.meta.Processors, Tid: 0, S: "g",
	})
}
