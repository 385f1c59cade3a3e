package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// layers collects a traced run's per-layer samples, rates and counts in
// memory, plus the spans they came from; nothing is written until the
// run ends.
type layers struct {
	samples map[string][]float64
	vals    map[string]float64
	spans   []obs.Span
}

func newLayers() *layers {
	return &layers{samples: make(map[string][]float64), vals: make(map[string]float64)}
}

// add records one sample of a timed layer.
func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// set records a rate, ratio or count.
func (l *layers) set(name string, v float64) { l.vals[name] = v }

// values flattens the layers into metric values; a layer the workload
// does not exercise reads 0 (the report shows it with n=0).
func (l *layers) values() map[string]float64 {
	out := make(map[string]float64, len(l.vals)+2*len(l.samples))
	for k, v := range l.vals {
		out[k] = v
	}
	for k, xs := range l.samples {
		out[k] = quantile(xs, 0.5)
		out[k+".p90"] = quantile(xs, 0.9)
	}
	return out
}

// report prints the per-layer table: self-time medians and p90s with
// their sample counts, then the rates and counts.
func (l *layers) report(w io.Writer, workload string) {
	fmt.Fprintf(w, "per-layer report, workload %s\n", workload)
	fmt.Fprintf(w, "%-28s %14s %14s %8s  %s\n", "layer", "median", "p90", "n", "unit")
	for _, s := range timedLayers {
		xs := l.samples[s.name]
		if len(xs) == 0 {
			fmt.Fprintf(w, "%-28s %14s %14s %8d  %s\n", s.name, "-", "-", 0, s.unit)
			continue
		}
		fmt.Fprintf(w, "%-28s %14.4f %14.4f %8d  %s\n", s.name, quantile(xs, 0.5), quantile(xs, 0.9), len(xs), s.unit)
	}
	for _, s := range valueLayers {
		if v, ok := l.vals[s.name]; ok {
			fmt.Fprintf(w, "%-28s %14.6g %14s %8s  %s\n", s.name, v, "", "", s.unit)
		} else {
			fmt.Fprintf(w, "%-28s %14s %14s %8s  %s\n", s.name, "-", "", "", s.unit)
		}
	}
}

// span records one driver-timed library call as a span, so engine and
// library timings are dumped in the same form as the server's spans.
func (l *layers) span(name, note string, start time.Time, d time.Duration) {
	l.spans = append(l.spans, obs.Span{
		Service: "perfbench", Name: name, Note: note,
		StartUs: start.UnixMicro(), DurUs: d.Microseconds(),
	})
}

// dump writes every recorded span as one JSON document.
func (l *layers) dump(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Set-up is timed by repeating it at least minSetupReps times and for
// at least setupTime, and taking the median: one set-up can take only
// milliseconds.
const (
	minSetupReps = 3
	setupTime    = time.Second
)

// timeSetup times setup as above (once in smoke mode) and returns the
// last result with the median set-up time in seconds; earlier results
// are torn down. Every repetition, and the timed phase after them,
// starts from a collected heap, so garbage left by one repetition does
// not count against the memory or time of the next.
func timeSetup[T any](smoke bool, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var secs []float64
	start := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if smoke || len(secs) >= minSetupReps && time.Since(start) >= setupTime {
			runtime.GC()
			return v, quantile(secs, 0.5), nil
		}
		if err := teardown(v); err != nil {
			return v, 0, err
		}
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
