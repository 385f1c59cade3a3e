package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/lint"
	"repro/internal/lint/linttest"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hotpathSources are the sources whose per-event (engine) and
// per-reference (profiling) functions carry //mtlint:hotpath annotations,
// by package directory under internal/, with the fewest each must keep.
var hotpathSources = []struct {
	pkg   string
	files []string
	min   int
}{
	{"sim", []string{"fast.go", "eventtree.go", "fastcache.go", "fastdir.go"}, 30},
	{"analysis", []string{"analysis.go"}, 2},
}

// countHotpathDirectives counts //mtlint:hotpath lines across the given
// real sources so the zero-findings verdict below cannot pass vacuously
// (e.g. if a refactor dropped the annotations).
func countHotpathDirectives(t *testing.T, pkg string, files []string) int {
	t.Helper()
	dir := filepath.Join(linttest.ModuleRoot(t), "internal", pkg)
	n := 0
	for _, name := range files {
		src, err := os.ReadFile(filepath.Join(dir, name))
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
// and repro/internal/analysis sources, must report zero findings on the
// annotated per-event and per-reference functions.
// TestHotpathMatchesAllocBenchmark and TestProfileHotpathMatchesAllocs
// below are the dynamic half of the same contract;
// BenchmarkEngineProbeDisabled keeps the engine's measured under -bench.
func TestHotpathVerdictOnRealEngine(t *testing.T) {
	for _, src := range hotpathSources {
		if n := countHotpathDirectives(t, src.pkg, src.files); n < src.min {
			t.Fatalf("only %d //mtlint:hotpath annotations found in %s %v; expected the full set (>= %d)", n, src.pkg, src.files, src.min)
		}
		diags := linttest.Diagnostics(t, []*lint.Analyzer{lint.Hotpath}, "repro/internal/"+src.pkg)
		for _, d := range diags {
			t.Errorf("hot-path allocation in real %s: %s", src.pkg, d)
		}
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

// profileTrace has four threads that each touch the same distinct
// addresses, half shared and half private, repeat times over.
func profileTrace(distinct, repeat int) *trace.Trace {
	const nThreads = 4
	tr := trace.New("lint-profile", nThreads)
	for i := 0; i < nThreads; i++ {
		r := trace.NewRecorder(tr, i)
		for rep := 0; rep < repeat; rep++ {
			for a := 0; a < distinct; a++ {
				addr := uint64(a+1) * trace.WordSize
				if a%2 == 0 {
					addr += trace.SharedBase
				}
				if (a+rep)%3 == 0 {
					r.Store(addr)
				} else {
					r.Load(addr)
				}
			}
		}
	}
	return tr
}

// TestProfileHotpathMatchesAllocs is the dynamic half of the profiling
// contract: a 10x longer trace over the same addresses must not change
// testing.AllocsPerRun of analysis.Analyze, so the annotated per-reference
// path performs zero allocations; 10x more distinct addresses per thread
// may add only the few allocations of geometric growth (the table doubles
// ceil(log2 10) = 4 more times, the first-touch list grows by append),
// never one per address.
func TestProfileHotpathMatchesAllocs(t *testing.T) {
	allocs := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() { analysis.Analyze(tr) })
	}
	short, long := allocs(profileTrace(500, 1)), allocs(profileTrace(500, 10))
	if long != short {
		t.Errorf("per-reference path allocates despite clean hotpath verdict: %.0f allocs for 500 refs per thread vs %.0f for 5,000 over the same addresses",
			short, long)
	}
	wide := allocs(profileTrace(5000, 1))
	if extra := wide - short; extra > 16 {
		t.Errorf("10x more distinct addresses per thread changed allocations by %.0f (%.0f -> %.0f); growth should add a few, not one per address",
			extra, short, wide)
	}
}
