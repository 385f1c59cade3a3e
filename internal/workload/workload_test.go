package workload

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// expectations encode the Table 2 shape each kernel is tuned toward:
// thread count exactly, percent shared references and thread-length
// deviation within a band.
var expectations = map[string]struct {
	threads        int
	pctSharedLo    float64
	pctSharedHi    float64
	lenDevLo       float64
	lenDevHi       float64
	paperPctShared float64 // Table 2 value, for reference
	paperLenDev    float64
}{
	"LocusRoute":  {32, 45, 70, 4, 25, 57.4, 14.6},
	"Water":       {32, 55, 80, 0, 6, 71.7, 2.4},
	"MP3D":        {32, 70, 92, 0, 6, 82.6, 0.9},
	"Cholesky":    {48, 10, 28, 0, 6, 17.1, 0.0},
	"Barnes-Hut":  {32, 48, 72, 1, 15, 58.6, 7.0},
	"Pverify":     {32, 80, 98, 8, 45, 91.7, 22.8},
	"Topopt":      {32, 38, 65, 0, 10, 50.7, 0.0},
	"Fullconn":    {64, 85, 99, 1, 15, 95.6, 6.1},
	"Grav":        {48, 88, 100, 15, 60, 98.2, 38.9},
	"Health":      {64, 80, 99, 45, 160, 93.5, 95.2},
	"Patch":       {64, 85, 100, 25, 95, 97.4, 59.1},
	"Vandermonde": {48, 88, 100, 50, 140, 98.7, 80.3},
	"FFT":         {64, 55, 90, 110, 280, 72.4, 187.6},
	"Gauss":       {127, 80, 100, 50, 130, 95.0, 84.6},
}

func TestSuiteComplete(t *testing.T) {
	apps := Apps()
	if len(apps) != 14 {
		t.Fatalf("suite has %d applications, want 14", len(apps))
	}
	coarse, medium := 0, 0
	for _, a := range apps {
		if a.Grain == Coarse {
			coarse++
		} else {
			medium++
		}
	}
	if coarse != 7 || medium != 7 {
		t.Errorf("coarse/medium = %d/%d, want 7/7", coarse, medium)
	}
	for _, a := range apps {
		if _, ok := expectations[a.Name]; !ok {
			t.Errorf("no expectations for %s", a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("Gauss")
	if err != nil || a.Name != "Gauss" {
		t.Errorf("ByName(Gauss) = %v, %v", a.Name, err)
	}
	if _, err := ByName("NotAnApp"); err == nil {
		t.Error("unknown app accepted")
	}
	if len(Names()) != 14 {
		t.Errorf("Names() has %d entries", len(Names()))
	}
}

func TestAllAppsBuildValidTraces(t *testing.T) {
	for _, a := range Apps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			tr, err := a.Build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if tr.NumThreads() != a.Threads {
				t.Errorf("threads = %d, want %d", tr.NumThreads(), a.Threads)
			}
			if err := tr.Validate(); err != nil {
				t.Error(err)
			}
			if tr.TotalRefs() < 1000 {
				t.Errorf("suspiciously small trace: %d refs", tr.TotalRefs())
			}
		})
	}
}

func TestCharacteristicsMatchPaperShape(t *testing.T) {
	for _, a := range Apps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			exp := expectations[a.Name]
			tr, err := a.Build(DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			c := analysis.Analyze(tr).Characteristics(nil)
			if c.Threads != exp.threads {
				t.Errorf("threads = %d, want %d", c.Threads, exp.threads)
			}
			if c.PctSharedRefs < exp.pctSharedLo || c.PctSharedRefs > exp.pctSharedHi {
				t.Errorf("%%shared = %.1f, want in [%v, %v] (paper: %v)",
					c.PctSharedRefs, exp.pctSharedLo, exp.pctSharedHi, exp.paperPctShared)
			}
			if c.Length.Dev < exp.lenDevLo || c.Length.Dev > exp.lenDevHi {
				t.Errorf("length dev = %.1f%%, want in [%v, %v] (paper: %v)",
					c.Length.Dev, exp.lenDevLo, exp.lenDevHi, exp.paperLenDev)
			}
		})
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, name := range []string{"LocusRoute", "FFT", "Gauss"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := a.Build(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		t2, err := a.Build(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if t1.TotalRefs() != t2.TotalRefs() || t1.TotalInstructions() != t2.TotalInstructions() {
			t.Errorf("%s: generation not deterministic", name)
		}
		for i := range t1.Threads {
			if t1.Threads[i].Refs() != t2.Threads[i].Refs() {
				t.Errorf("%s: thread %d differs between builds", name, i)
				break
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a, _ := ByName("LocusRoute")
	t1, err := a.Build(Params{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Build(Params{Scale: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if t1.TotalInstructions() == t2.TotalInstructions() {
		t.Error("different seeds produced identical instruction counts (suspicious)")
	}
}

func TestScaleScalesWork(t *testing.T) {
	a, _ := ByName("Water")
	small, err := a.Build(Params{Scale: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := a.Build(Params{Scale: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.TotalInstructions()) / float64(small.TotalInstructions())
	if ratio < 2 || ratio > 8 {
		t.Errorf("scale 2 vs 0.5 instruction ratio = %.2f, want roughly 4x", ratio)
	}
	if _, err := a.Build(Params{Scale: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := a.Build(Params{Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
}

// TestPrivateIsolation: private addresses referenced by thread t must lie
// in t's own arena; no two threads may touch the same private address.
func TestPrivateIsolation(t *testing.T) {
	for _, a := range Apps() {
		tr, err := a.Build(DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, th := range tr.Threads {
			lo := uint64(th.ID+1) * privateStride
			hi := lo + privateStride
			for c := th.Cursor(); ; {
				e, ok := c.Next()
				if !ok {
					break
				}
				if trace.IsShared(e.Addr) {
					continue
				}
				if e.Addr < lo || e.Addr >= hi {
					t.Fatalf("%s: thread %d touches foreign private address %#x", a.Name, th.ID, e.Addr)
				}
			}
		}
	}
}

// TestSequentialSharing verifies the key program property the paper
// identifies (§4.2): shared addresses are accessed in long single-thread
// runs. We measure the mean run length over the thread-interleaved
// reference stream per shared address; it must be comfortably above 1
// (strictly alternating access would give ~1).
func TestSequentialSharingRuns(t *testing.T) {
	for _, name := range []string{"Water", "Barnes-Hut", "Gauss", "FFT"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := a.Build(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		// Per shared address: count accesses and thread changes in trace
		// order (approximating temporal interleave by thread rotation).
		last := make(map[uint64]int)
		runs := make(map[uint64]int)
		accesses := make(map[uint64]int)
		for _, th := range tr.Threads {
			for c := th.Cursor(); ; {
				e, ok := c.Next()
				if !ok {
					break
				}
				if !trace.IsShared(e.Addr) {
					continue
				}
				accesses[e.Addr]++
				if prev, seen := last[e.Addr]; !seen || prev != th.ID {
					runs[e.Addr]++
				}
				last[e.Addr] = th.ID
			}
		}
		var totalAcc, totalRuns float64
		for addr, n := range accesses {
			if runs[addr] == 0 {
				continue
			}
			totalAcc += float64(n)
			totalRuns += float64(runs[addr])
		}
		meanRun := totalAcc / math.Max(totalRuns, 1)
		if meanRun < 1.5 {
			t.Errorf("%s: mean same-thread run length = %.2f, want sequential sharing (>1.5)", name, meanRun)
		}
	}
}

func TestCacheSizesMatchPaper(t *testing.T) {
	for _, a := range Apps() {
		want := 64 << 10
		if a.Grain == Coarse || a.Name == "Health" || a.Name == "FFT" {
			want = 32 << 10
		}
		if a.CacheSize != want {
			t.Errorf("%s cache size = %d, want %d", a.Name, a.CacheSize, want)
		}
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{base: trace.SharedBase, words: 10}
	if r.Addr(0) != trace.SharedBase {
		t.Error("Addr(0) wrong")
	}
	if r.Addr(10) != r.Addr(0) || r.Addr(-1) != r.Addr(9) {
		t.Error("Addr wrap wrong")
	}
	s := r.Slice(2, 3)
	if s.Len() != 3 || s.Addr(0) != r.Addr(2) {
		t.Error("Slice wrong")
	}
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { r.Slice(8, 5) })
	mustPanic(func() { Region{}.Addr(0) })
}

func TestGrainString(t *testing.T) {
	if Coarse.String() != "coarse" || Medium.String() != "medium" {
		t.Error("grain strings wrong")
	}
}

func TestReverseBits(t *testing.T) {
	if reverseBits(1, 3) != 4 || reverseBits(6, 3) != 3 || reverseBits(0, 5) != 0 {
		t.Error("reverseBits wrong")
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestBuildAllocatesTraceOnce: a build allocates its trace's events
// once, in the sealed slab, instead of regrowing a slice per thread. The
// bound is 1.5x the event bytes of the trace returned, for every catalog
// app at scale 0.25; a build that doubles its event slices as it records
// allocates about 3.4x. A warm-up build fills the staging and generator
// pools, and the smallest of three builds is measured, so a collection
// that empties a pool cannot fail the test.
func TestBuildAllocatesTraceOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what is put back, so a build's bytes measure the detector")
	}
	p := Params{Scale: 0.25, Seed: 1994}
	build := func(a App) uint64 {
		tr, err := a.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		return 8 * tr.TotalRefs()
	}
	for _, a := range Apps() {
		events := build(a)
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			build(a)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if ratio := float64(best) / float64(events); ratio > 1.5 {
			t.Errorf("%s: a build allocates %d bytes, %.2fx its %d event bytes; want at most 1.5x", a.Name, best, ratio, events)
		} else {
			t.Logf("%s: %.2fx of %d event bytes", a.Name, ratio, events)
		}
	}
}
