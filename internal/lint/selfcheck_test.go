package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hotpathFiles are the fast-engine sources whose per-event functions carry
// //mtlint:hotpath annotations.
var hotpathFiles = []string{"fast.go", "eventtree.go", "fastcache.go", "fastdir.go"}

// countHotpathDirectives counts //mtlint:hotpath lines across the real
// engine sources so the zero-findings verdict below cannot pass vacuously
// (e.g. if a refactor dropped the annotations).
func countHotpathDirectives(t *testing.T) int {
	t.Helper()
	simDir := filepath.Join(linttest.ModuleRoot(t), "internal", "sim")
	n := 0
	for _, name := range hotpathFiles {
		src, err := os.ReadFile(filepath.Join(simDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.TrimSpace(line) == "//mtlint:hotpath" {
				n++
			}
		}
	}
	return n
}

// TestHotpathVerdictOnRealEngine is the static half of the allocation-free
// contract: the hotpath analyzer, run over the real repro/internal/sim
// sources, must report zero findings on the annotated per-event functions.
// TestHotpathMatchesAllocBenchmark below is the dynamic half of the same
// contract; BenchmarkEngineProbeDisabled keeps it measured under -bench.
func TestHotpathVerdictOnRealEngine(t *testing.T) {
	if n := countHotpathDirectives(t); n < 30 {
		t.Fatalf("only %d //mtlint:hotpath annotations found in %v; expected the full per-event set (>= 30)", n, hotpathFiles)
	}
	diags := linttest.Diagnostics(t, []*lint.Analyzer{lint.Hotpath}, "repro/internal/sim")
	for _, d := range diags {
		t.Errorf("hot-path allocation in real engine: %s", d)
	}
}

// selfCheckTrace mirrors bench_test.go's probeBenchTrace: thread length
// scales with events while the working set (16 shared blocks, 4 threads)
// stays fixed, so all setup allocations are identical across lengths.
func selfCheckTrace(events int) *trace.Trace {
	const nThreads = 4
	tr := trace.New("lint-selfcheck", nThreads)
	for i := 0; i < nThreads; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < events; j++ {
			r.Compute(j % 5)
			block := trace.SharedBase + uint64((j+i*3)%16)*sim.DefaultLineSize
			if j%4 == 0 {
				r.Ref(trace.Write, block)
			} else {
				r.Ref(trace.Read, block)
			}
		}
	}
	return tr
}

// TestHotpathMatchesAllocBenchmark cross-checks the analyzer's verdict
// against the runtime allocation count, the same measurement
// BenchmarkEngineProbeDisabled makes: running a 10x longer trace over the
// same working set must not change testing.AllocsPerRun, i.e. the
// annotated per-event path performs zero allocations. If this fails while
// TestHotpathVerdictOnRealEngine passes, the hotpath analyzer has a blind
// spot worth a new check (and vice versa: a new finding with this test
// green means the analyzer is over-approximating).
func TestHotpathMatchesAllocBenchmark(t *testing.T) {
	pl := &placement.Placement{Algorithm: "SELFCHECK", Clusters: [][]int{{0, 1}, {2, 3}}}
	cfg := sim.DefaultConfig(2)
	run := func(tr *trace.Trace) {
		if _, err := sim.RunObserved(tr, pl, cfg, sim.FastEngine, nil); err != nil {
			t.Fatal(err)
		}
	}
	short, long := selfCheckTrace(300), selfCheckTrace(3000)
	allocsShort := testing.AllocsPerRun(5, func() { run(short) })
	allocsLong := testing.AllocsPerRun(5, func() { run(long) })
	if allocsLong != allocsShort {
		t.Errorf("per-event path allocates despite clean hotpath verdict: %.0f allocs for 300-event threads vs %.0f for 3000",
			allocsShort, allocsLong)
	}
}
