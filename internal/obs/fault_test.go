package obs

import (
	"strings"
	"testing"
)

// TestSamplerFaultMarks: Fault is no longer a silent no-op — marks land
// in the bounded side list and surface as Table() metadata without
// changing the CSV column schema.
func TestSamplerFaultMarks(t *testing.T) {
	s := NewSampler(100)
	s.RunBegin(RunMeta{App: "toy", Threads: 1, Processors: 1})
	s.CacheHit(10, 0, 0)
	s.Fault(42, FaultWatchdog)
	s.Fault(190, FaultInjected)
	s.RunEnd(200)

	marks := s.Faults()
	if len(marks) != 2 {
		t.Fatalf("got %d marks, want 2", len(marks))
	}
	if marks[0] != (FaultMark{T: 42, Kind: FaultWatchdog}) || marks[1] != (FaultMark{T: 190, Kind: FaultInjected}) {
		t.Errorf("marks = %+v", marks)
	}

	tab := s.Table()
	if !strings.Contains(tab.Note, "watchdog@t=42") || !strings.Contains(tab.Note, "injected@t=190") {
		t.Errorf("table note %q missing fault marks", tab.Note)
	}
	if len(tab.Columns) != 18 {
		t.Errorf("fault marks changed the column schema: %d columns", len(tab.Columns))
	}
}

// TestSamplerFaultWindowEdge: a fault at the exact window boundary — and
// past the run's execution time, where the watchdog actually fires — must
// not materialize windows or shift the series, and the mark keeps its
// exact timestamp rather than being clamped to the final window.
func TestSamplerFaultWindowEdge(t *testing.T) {
	s := NewSampler(100)
	s.RunBegin(RunMeta{App: "toy", Threads: 1, Processors: 1})
	s.CacheHit(10, 0, 0)
	s.Fault(100, FaultWatchdog) // exact window edge
	s.Fault(250, FaultInjected) // beyond the run's end
	s.RunEnd(150)

	samples := s.Samples()
	if len(samples) != 2 {
		t.Fatalf("got %d windows, want 2 (faults must not materialize windows)", len(samples))
	}
	if samples[1].End != 150 {
		t.Errorf("final window End = %d, want clamped 150", samples[1].End)
	}
	marks := s.Faults()
	if len(marks) != 2 || marks[0].T != 100 || marks[1].T != 250 {
		t.Errorf("marks = %+v, want exact t=100 and t=250", marks)
	}

	// RunBegin resets the list for sampler reuse.
	s.RunBegin(RunMeta{App: "toy", Threads: 1, Processors: 1})
	if len(s.Faults()) != 0 || s.Table().Note != "" {
		t.Error("RunBegin did not reset fault marks")
	}
}

// TestSamplerFaultBounded: the side list caps at maxFaultMarks and counts
// the overflow.
func TestSamplerFaultBounded(t *testing.T) {
	s := NewSampler(100)
	s.RunBegin(RunMeta{App: "toy", Threads: 1, Processors: 1})
	for i := 0; i < maxFaultMarks+5; i++ {
		s.Fault(uint64(i), FaultInjected)
	}
	s.RunEnd(10)
	if len(s.Faults()) != maxFaultMarks {
		t.Errorf("kept %d marks, want %d", len(s.Faults()), maxFaultMarks)
	}
	if s.FaultsDropped() != 5 {
		t.Errorf("dropped = %d, want 5", s.FaultsDropped())
	}
	if !strings.Contains(s.Table().Note, "(+5 dropped)") {
		t.Errorf("note %q missing drop count", s.Table().Note)
	}
}
