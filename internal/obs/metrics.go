package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Process-level metrics for the serving layer. Probes (Counter, Sampler,
// Tracer) observe one simulation run; a MetricSet aggregates across the
// whole process lifetime — requests served, cache hits, queue rejections —
// and renders in the Prometheus text exposition format for GET /metrics.
// Stdlib-only, like everything else in this repo: a name-keyed registry of
// atomic int64 cells.

// MetricKind distinguishes monotonically increasing counters from
// set-anywhere gauges, mirroring the Prometheus TYPE annotation.
type MetricKind uint8

const (
	// KindCounter only ever increases (requests_total, hits_total).
	KindCounter MetricKind = iota
	// KindGauge moves both ways (queue depth, in-flight requests).
	KindGauge
	// KindHistogram is a fixed log-scale bucket distribution (see
	// Histogram); registered via MetricSet.Histogram, rendered as
	// Prometheus _bucket/_sum/_count series.
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "counter"
}

// Metric is one named value. All methods are safe for concurrent use and
// allocation-free.
type Metric struct {
	name string
	help string
	kind MetricKind
	v    atomic.Int64
}

// Name returns the metric's registered name.
func (m *Metric) Name() string { return m.name }

// Inc adds one.
func (m *Metric) Inc() { m.v.Add(1) }

// Add adds delta (negative deltas are for gauges; counters must only
// grow — the registry does not police this, the caller's code review
// does).
func (m *Metric) Add(delta int64) { m.v.Add(delta) }

// Set stores v. Only meaningful for gauges.
func (m *Metric) Set(v int64) { m.v.Store(v) }

// Value reads the current value.
func (m *Metric) Value() int64 { return m.v.Load() }

// MetricSet is a registry of metrics with deterministic rendering. The
// zero value is not usable; call NewMetricSet.
type MetricSet struct {
	mu     sync.Mutex
	byName map[string]*Metric
	hists  map[string]*Histogram
}

// NewMetricSet returns an empty registry.
func NewMetricSet() *MetricSet {
	return &MetricSet{byName: make(map[string]*Metric), hists: make(map[string]*Histogram)}
}

// Counter registers (or returns the existing) counter with this name.
// Re-registering a name with a different kind or help text panics: metric
// identity is a program invariant, not runtime data.
func (s *MetricSet) Counter(name, help string) *Metric {
	return s.register(name, help, KindCounter)
}

// Gauge registers (or returns the existing) gauge with this name.
func (s *MetricSet) Gauge(name, help string) *Metric {
	return s.register(name, help, KindGauge)
}

func (s *MetricSet) register(name, help string, kind MetricKind) *Metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.byName[name]; ok {
		if m.kind != kind || m.help != help {
			panic(fmt.Sprintf("obs: metric %q re-registered with different kind or help", name))
		}
		return m
	}
	if _, ok := s.hists[name]; ok {
		panic(fmt.Sprintf("obs: metric %q re-registered with different kind or help", name))
	}
	m := &Metric{name: name, help: help, kind: kind}
	s.byName[name] = m
	return m
}

// Histogram registers (or returns the existing) histogram with this name.
// Like register, re-registering with a different kind or help panics.
func (s *MetricSet) Histogram(name, help string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.hists[name]; ok {
		if h.help != help {
			panic(fmt.Sprintf("obs: metric %q re-registered with different kind or help", name))
		}
		return h
	}
	if _, ok := s.byName[name]; ok {
		panic(fmt.Sprintf("obs: metric %q re-registered with different kind or help", name))
	}
	h := NewHistogram(name, help)
	s.hists[name] = h
	return h
}

// Snapshot returns the current value of every metric, keyed by name.
func (s *MetricSet) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.byName)+2*len(s.hists))
	for name, m := range s.byName {
		out[name] = m.Value()
	}
	for name, h := range s.hists {
		out[name+"_count"] = h.Count()
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// WriteTo renders every metric in the Prometheus text format, sorted by
// name so the output is deterministic for a given set of values.
// Histograms interleave with scalar metrics in the same name order.
func (s *MetricSet) WriteTo(w io.Writer) (int64, error) {
	s.mu.Lock()
	metrics := make([]*Metric, 0, len(s.byName))
	for _, m := range s.byName {
		metrics = append(metrics, m)
	}
	hists := make([]*Histogram, 0, len(s.hists))
	for _, h := range s.hists {
		hists = append(hists, h)
	}
	s.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	var n int64
	hi := 0
	for _, m := range metrics {
		for hi < len(hists) && hists[hi].name < m.name {
			c, err := hists[hi].writeTo(w)
			n += c
			if err != nil {
				return n, err
			}
			hi++
		}
		c, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.kind, m.name, m.Value())
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	for ; hi < len(hists); hi++ {
		c, err := hists[hi].writeTo(w)
		n += c
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
