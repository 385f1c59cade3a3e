package obs

import (
	"fmt"

	"repro/internal/report"
)

// Sampler is a Probe that aggregates events into fixed-width windows of
// simulated time, producing the time-resolved view the end-of-run
// aggregates cannot: when the misses happen, when coherence traffic
// bursts, how context occupancy evolves across program phases.
//
// Windows are half-open [i·W, (i+1)·W). Events are bucketed by time, so
// the engine's slightly out-of-order completion reports land in the right
// window regardless of emission order. The final window is partial: its
// End is the run's execution time. When the execution time is an exact
// multiple of the window width, completion events at that instant land in
// a zero-width terminal window (Start == End) — the honest encoding of
// "at the very end".
//
// A Sampler is single-owner: the goroutine running the engine feeds it
// and reads it back only after the run ends. It is not safe for
// concurrent use.
//
//mtlint:guard external -- single-owner: fed and read by the one goroutine running the engine
type Sampler struct {
	window uint64
	meta   RunMeta
	exec   uint64
	ended  bool

	samples []Sample
	// runStart[thread] is the cycle the thread's context was scheduled,
	// or -1 while not running; busy cycles are integrated over windows
	// when the slice closes.
	runStart []int64
}

// Sample is one window's aggregated activity. The JSON tags are the SSE
// stream wire format (GET /v1/jobs/{id}/events "sample" events). Samples
// are mutated in place only by their owning Sampler; everyone else gets
// value copies (Samples() returns a fresh slice).
//
//mtlint:guard external -- mutated only by the owning Sampler; published as value copies
type Sample struct {
	// Start and End bound the window in simulated cycles, [Start, End).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Refs, Hits and Misses count references issued in the window.
	Refs   uint64                 `json:"refs"`
	Hits   uint64                 `json:"hits"`
	Misses [NumMissClasses]uint64 `json:"misses"`
	// Upgradeless coherence activity in the window.
	Invalidations uint64 `json:"invalidations"`
	Updates       uint64 `json:"updates"`
	PairTraffic   uint64 `json:"pair_traffic"`
	// Switches counts context switches charged in the window.
	Switches uint64 `json:"switches"`
	// BusyCycles integrates running-context time over the window: a
	// window in which 3 contexts ran the whole time contributes 3·W.
	BusyCycles uint64 `json:"busy_cycles"`
	// Event-queue depth statistics over the engine events processed in
	// the window.
	QueueSum   uint64 `json:"queue_sum"`
	QueueCount uint64 `json:"queue_count"`
	QueueMax   int    `json:"queue_max"`
}

// TotalMisses sums the window's miss classes.
func (s *Sample) TotalMisses() uint64 {
	var n uint64
	for _, m := range s.Misses {
		n += m
	}
	return n
}

// MissRate returns misses per reference in the window (0 when idle).
func (s *Sample) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(s.Refs)
}

// Occupancy returns the mean number of running contexts over the window
// (0 for the zero-width terminal window).
func (s *Sample) Occupancy() float64 {
	if s.End <= s.Start {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.End-s.Start)
}

// QueueMean returns the mean event-queue depth over the window's events.
func (s *Sample) QueueMean() float64 {
	if s.QueueCount == 0 {
		return 0
	}
	return float64(s.QueueSum) / float64(s.QueueCount)
}

// NewSampler returns a sampler with the given window width in simulated
// cycles. It panics if window is zero.
func NewSampler(window uint64) *Sampler {
	if window == 0 {
		panic("obs: sampler window must be positive")
	}
	return &Sampler{window: window}
}

// Window returns the configured window width.
func (s *Sampler) Window() uint64 { return s.window }

// Meta returns the run metadata captured at RunBegin.
func (s *Sampler) Meta() RunMeta { return s.meta }

// at returns the window accumulator covering time t, growing the slice as
// the simulation advances.
func (s *Sampler) at(t uint64) *Sample {
	i := int(t / s.window)
	for len(s.samples) <= i {
		start := uint64(len(s.samples)) * s.window
		s.samples = append(s.samples, Sample{Start: start, End: start + s.window})
	}
	return &s.samples[i]
}

// addBusy integrates a closed running slice [from, to) across windows.
func (s *Sampler) addBusy(from, to uint64) {
	for from < to {
		w := s.at(from)
		end := w.Start + s.window
		if end > to {
			end = to
		}
		w.BusyCycles += end - from
		from = end
	}
}

// RunBegin implements Probe.
func (s *Sampler) RunBegin(meta RunMeta) {
	s.meta = meta
	s.exec = 0
	s.ended = false
	s.samples = s.samples[:0]
	s.runStart = make([]int64, meta.Threads)
	for i := range s.runStart {
		s.runStart[i] = -1
	}
}

// RunEnd implements Probe.
func (s *Sampler) RunEnd(execTime uint64) {
	s.exec = execTime
	s.ended = true
	// Close any still-open slices (defensive: engines pause or finish
	// every thread before RunEnd).
	for thread, start := range s.runStart {
		if start >= 0 {
			s.addBusy(uint64(start), execTime)
			s.runStart[thread] = -1
		}
	}
	// Materialize trailing empty windows so the series covers the run.
	s.at(execTime)
}

// ThreadRun implements Probe.
func (s *Sampler) ThreadRun(t uint64, proc, thread int) {
	if thread < len(s.runStart) {
		s.runStart[thread] = int64(t)
	}
}

// closeSlice integrates the thread's open running slice ending at t.
func (s *Sampler) closeSlice(t uint64, thread int) {
	if thread >= len(s.runStart) {
		return
	}
	if start := s.runStart[thread]; start >= 0 {
		s.addBusy(uint64(start), t)
		s.runStart[thread] = -1
	}
}

// ThreadPause implements Probe.
func (s *Sampler) ThreadPause(t uint64, proc, thread int, resumeAt uint64) {
	s.closeSlice(t, thread)
}

// ThreadFinish implements Probe.
func (s *Sampler) ThreadFinish(t uint64, proc, thread int) {
	s.closeSlice(t, thread)
}

// CacheHit implements Probe.
func (s *Sampler) CacheHit(t uint64, proc, thread int) {
	w := s.at(t)
	w.Refs++
	w.Hits++
}

// CacheMiss implements Probe.
func (s *Sampler) CacheMiss(t uint64, proc, thread int, class MissClass) {
	w := s.at(t)
	w.Refs++
	w.Misses[class]++
}

// Invalidation implements Probe.
func (s *Sampler) Invalidation(t uint64, from, to int) { s.at(t).Invalidations++ }

// Update implements Probe.
func (s *Sampler) Update(t uint64, from, to int) { s.at(t).Updates++ }

// PairTraffic implements Probe.
func (s *Sampler) PairTraffic(t uint64, from, to int) { s.at(t).PairTraffic++ }

// ContextSwitch implements Probe.
func (s *Sampler) ContextSwitch(t uint64, proc int) { s.at(t).Switches++ }

// QueueDepth implements Probe.
func (s *Sampler) QueueDepth(t uint64, depth int) {
	w := s.at(t)
	w.QueueSum += uint64(depth)
	w.QueueCount++
	if depth > w.QueueMax {
		w.QueueMax = depth
	}
}

// Migrate implements Probe. A sampler keeps windows only; online runs
// log every move in Result.Online.Moves.
func (s *Sampler) Migrate(t uint64, thread, from, to int) {}

// Samples returns the windows in time order. After RunEnd the final
// window's End is clamped to the execution time (the partial window).
func (s *Sampler) Samples() []Sample {
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	if s.ended {
		for i := range out {
			if out[i].End > s.exec {
				out[i].End = s.exec
				if out[i].End < out[i].Start {
					out[i].End = out[i].Start
				}
			}
		}
	}
	return out
}

// Table renders the samples as a report.Table — one row per window — for
// text rendering and CSV export.
func (s *Sampler) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Time series: %s / %s (%s engine, %d-cycle windows)",
			s.meta.App, s.meta.Algorithm, s.meta.Engine, s.window),
		Columns: []string{
			"start", "end", "refs", "hits", "misses", "miss_rate",
			"compulsory", "conflict_intra", "conflict_inter", "invalidation_miss",
			"invalidations", "updates", "pair_traffic", "switches",
			"busy_cycles", "occupancy", "queue_mean", "queue_max",
		},
	}
	for _, w := range s.Samples() {
		t.AddRow(
			fmt.Sprint(w.Start), fmt.Sprint(w.End),
			fmt.Sprint(w.Refs), fmt.Sprint(w.Hits), fmt.Sprint(w.TotalMisses()),
			report.F(w.MissRate(), 4),
			fmt.Sprint(w.Misses[MissCompulsory]), fmt.Sprint(w.Misses[MissConflictIntra]),
			fmt.Sprint(w.Misses[MissConflictInter]), fmt.Sprint(w.Misses[MissInvalidation]),
			fmt.Sprint(w.Invalidations), fmt.Sprint(w.Updates),
			fmt.Sprint(w.PairTraffic), fmt.Sprint(w.Switches),
			fmt.Sprint(w.BusyCycles), report.F(w.Occupancy(), 3),
			report.F(w.QueueMean(), 2), fmt.Sprint(w.QueueMax),
		)
	}
	return t
}

// TimeSeries renders the headline metrics as sparkline series: miss rate,
// context occupancy, pairwise coherence traffic per kilocycle, and mean
// event-queue depth.
func (s *Sampler) TimeSeries() *report.TimeSeries {
	ts := &report.TimeSeries{
		Title: fmt.Sprintf("%s / %s — %d-cycle windows (%s engine)",
			s.meta.App, s.meta.Algorithm, s.window, s.meta.Engine),
		Step: s.window,
	}
	samples := s.Samples()
	missRate := make([]float64, len(samples))
	occupancy := make([]float64, len(samples))
	pairRate := make([]float64, len(samples))
	queue := make([]float64, len(samples))
	for i, w := range samples {
		missRate[i] = w.MissRate() * 100
		occupancy[i] = w.Occupancy()
		if w.End > w.Start {
			pairRate[i] = float64(w.PairTraffic) / float64(w.End-w.Start) * 1000
		}
		queue[i] = w.QueueMean()
	}
	ts.Series = []report.Series{
		{Name: "miss_rate_%", Points: missRate},
		{Name: "occupancy", Points: occupancy},
		{Name: "pair_traffic_per_kcycle", Points: pairRate},
		{Name: "queue_depth_mean", Points: queue},
	}
	return ts
}
