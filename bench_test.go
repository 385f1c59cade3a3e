package mtsim

// One benchmark per table and figure of the paper's evaluation. The
// shared suite memoizes traces, placements and simulation results, so
// benchmarks against it time the memoized sweep (first iteration
// simulates, the rest are served from cache — the workflow a user
// regenerating several figures actually experiences). Benchmarks that
// must keep simulation in the timed path either build a fresh suite per
// iteration (Tables 4 and 5) or call the engines directly
// (BenchmarkSimulateWater4p and the BenchmarkEngine* pair, which compare
// the reference and fast engines on identical cells). Custom metrics
// surface each experiment's headline number next to the timing.
//
// Run with: go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var benchSuite = sync.OnceValue(func() *core.Suite {
	return core.NewSuite(core.DefaultOptions())
})

// BenchmarkTable1Suite regenerates Table 1: the application-suite summary
// (threads, instruction counts, granularity) for all fourteen programs.
func BenchmarkTable1Suite(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 14 {
			b.Fatalf("%d rows", len(rows))
		}
		_ = core.Table1Report(rows).String()
	}
}

// BenchmarkTable2Characteristics regenerates Table 2: the statically
// measured program characteristics (pairwise/N-way sharing, references per
// shared address, shared-reference percentage, thread lengths).
func BenchmarkTable2Characteristics(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Table2Report(rows).String()
	}
}

// BenchmarkTable3Architecture renders Table 3: the architectural inputs.
func BenchmarkTable3Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table3Report().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// executionFigure benchmarks one of Figures 2-4 and reports the LOAD-BAL
// vs RANDOM advantage at the largest processor count as a metric.
func executionFigure(b *testing.B, app string) {
	b.Helper()
	s := benchSuite()
	var last *core.Figure
	for i := 0; i < b.N; i++ {
		fig, err := s.ExecutionFigure(app)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	procs := s.Options().ProcCounts
	if cell := last.Cell("LOAD-BAL", procs[len(procs)-1]); cell != nil {
		b.ReportMetric((1-cell.Normalized)*100, "loadbal_gain_%")
	}
}

// BenchmarkFigure2LocusRoute regenerates Figure 2: LocusRoute execution
// time for every placement algorithm, normalized to RANDOM, across the
// processor sweep.
func BenchmarkFigure2LocusRoute(b *testing.B) { executionFigure(b, "LocusRoute") }

// BenchmarkFigure3FFT regenerates Figure 3: FFT execution time normalized
// to RANDOM (the paper's strongest load-balancing effect, 13-56%).
func BenchmarkFigure3FFT(b *testing.B) { executionFigure(b, "FFT") }

// BenchmarkFigure4BarnesHut regenerates Figure 4: Barnes-Hut execution
// time normalized to RANDOM (uniform thread lengths: no algorithm wins).
func BenchmarkFigure4BarnesHut(b *testing.B) { executionFigure(b, "Barnes-Hut") }

// BenchmarkFigure5MissComponents regenerates Figure 5: the cache-miss
// component breakdown across placements and threads/processor for MP3D,
// reporting the compulsory+invalidation spread across algorithms (the
// paper's invariance claim — smaller is more invariant).
func BenchmarkFigure5MissComponents(b *testing.B) {
	s := benchSuite()
	var cells []core.MissComponentCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = s.MissComponentFigure("MP3D")
		if err != nil {
			b.Fatal(err)
		}
	}
	procs := s.Options().ProcCounts
	b.ReportMetric(core.InvarianceSpread(cells, procs[len(procs)-1]), "comp+inv_spread_per_kiloref")
}

// BenchmarkTable4CoherenceTraffic regenerates Table 4: statically counted
// sharing vs dynamically measured coherence traffic (one thread per
// processor), reporting the mean static/dynamic gap in orders of
// magnitude. A fresh suite per iteration keeps the dynamic measurement in
// the timed path.
func BenchmarkTable4CoherenceTraffic(b *testing.B) {
	var rows []core.Table4Row
	for i := 0; i < b.N; i++ {
		s := core.NewSuite(core.DefaultOptions())
		var err error
		rows, err = s.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	var orders float64
	for _, r := range rows {
		orders += r.OrdersOfMagnitude
	}
	b.ReportMetric(orders/float64(len(rows)), "mean_static/dynamic_10^x")
}

// BenchmarkTable5InfiniteCache regenerates Table 5: the 8 MB
// "infinite-cache" comparison of the best sharing-based and
// coherence-traffic placements against LOAD-BAL, reporting the mean
// best-static ratio (the paper finds ~1.0: sharing gains at most 2%).
func BenchmarkTable5InfiniteCache(b *testing.B) {
	var cells []core.Table5Cell
	for i := 0; i < b.N; i++ {
		s := core.NewSuite(core.DefaultOptions())
		var err error
		cells, err = s.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	var norm float64
	for _, c := range cells {
		norm += c.BestStaticNorm
	}
	b.ReportMetric(norm/float64(len(cells)), "mean_best_static_vs_loadbal")
}

// ---- component micro-benchmarks ----

// BenchmarkSimulateWater4p measures raw simulator throughput on one
// representative configuration; the events/sec metric is references
// processed per second of wall time.
func BenchmarkSimulateWater4p(b *testing.B) {
	s := benchSuite()
	tr, err := s.Trace("Water")
	if err != nil {
		b.Fatal(err)
	}
	pl, err := s.Place("Water", "LOAD-BAL", 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := s.Config("Water", 4, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, pl, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.TotalRefs())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// benchmarkEngine times one engine on the Figure 2 application's
// LOAD-BAL/8p cell, reporting simulated cycles per second of wall time.
// A non-zero cacheSize replaces the application's own cache capacity.
func benchmarkEngine(b *testing.B, eng sim.Engine, cacheSize int) {
	b.Helper()
	s := benchSuite()
	tr, err := s.Trace("LocusRoute")
	if err != nil {
		b.Fatal(err)
	}
	pl, err := s.Place("LocusRoute", "LOAD-BAL", 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := s.Config("LocusRoute", 8, false)
	if err != nil {
		b.Fatal(err)
	}
	if cacheSize != 0 {
		cfg.CacheSize = cacheSize
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunObserved(tr, pl, cfg, eng, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ExecTime
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkEngineReference times the boxed container/heap reference
// engine on LocusRoute LOAD-BAL at 8 processors.
func BenchmarkEngineReference(b *testing.B) { benchmarkEngine(b, sim.ReferenceEngine, 0) }

// probeBenchTrace builds a synthetic trace whose per-thread length varies
// with events but whose working set (16 shared blocks across 4 threads)
// is fixed, so every allocation outside the engines' per-event hot path —
// machine construction, cache and directory slabs, cursors — is identical
// regardless of length.
func probeBenchTrace(events int) *trace.Trace {
	const nThreads = 4
	tr := trace.New("probe-bench", nThreads)
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

// BenchmarkEngineProbeDisabled asserts the observability layer's
// zero-cost-when-disabled contract: with no probe attached, the fast
// engine's per-event hot path performs zero allocations. Whole-run alloc
// counts include setup (machine, slabs, cursors), so the assertion
// compares a short against a 10x longer trace over the same working set:
// any per-event allocation would scale with length and break the
// equality. The timed loop then reports throughput for the same runs.
func BenchmarkEngineProbeDisabled(b *testing.B) {
	pl := &placement.Placement{Algorithm: "BENCH", Clusters: [][]int{{0, 1}, {2, 3}}}
	cfg := sim.DefaultConfig(2)
	run := func(tr *trace.Trace) {
		if _, err := sim.RunObserved(tr, pl, cfg, sim.FastEngine, nil); err != nil {
			b.Fatal(err)
		}
	}
	short, long := probeBenchTrace(500), probeBenchTrace(5000)
	allocsShort := testing.AllocsPerRun(5, func() { run(short) })
	allocsLong := testing.AllocsPerRun(5, func() { run(long) })
	if allocsLong != allocsShort {
		b.Fatalf("probe-disabled hot path allocates: %.0f allocs for 500-event threads vs %.0f for 5000 (%.4f allocs per extra event)",
			allocsShort, allocsLong, (allocsLong-allocsShort)/(4*4500))
	}
	b.ReportMetric(0, "hotpath_allocs/event")

	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunObserved(long, pl, cfg, sim.FastEngine, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ExecTime
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkEngineFast times the fast engine (event tree of packed keys,
// slab contexts, one-word cache lines) on the same cell; the cycles/s
// ratio against BenchmarkEngineReference is the raw engine speedup.
func BenchmarkEngineFast(b *testing.B) { benchmarkEngine(b, sim.FastEngine, 0) }

// BenchmarkEngineFastInfinite is BenchmarkEngineFast at the paper's 8 MB
// stand-in for an infinite cache (Table 5): 262,144 direct-mapped lines
// per processor, of which the cell touches a few thousand, so its
// allocation and time show what the cache's set-up costs.
func BenchmarkEngineFastInfinite(b *testing.B) {
	benchmarkEngine(b, sim.FastEngine, sim.InfiniteCacheSize)
}

// BenchmarkAnalyzeGauss measures the static trace analysis plus sharing-
// matrix construction on the largest-thread-count application.
func BenchmarkAnalyzeGauss(b *testing.B) {
	app, err := workload.ByName("Gauss")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := app.Build(workload.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := Analyze(tr)
		if set.Sharing().NumThreads() != 127 {
			b.Fatal("bad analysis")
		}
	}
}

// BenchmarkPlaceShareRefsGauss measures the SHARE-REFS clustering on the
// 127-thread application — the placement algorithms' worst case.
func BenchmarkPlaceShareRefsGauss(b *testing.B) {
	s := benchSuite()
	d, err := s.Sharing("Gauss")
	if err != nil {
		b.Fatal(err)
	}
	alg, err := placement.ByName("SHARE-REFS")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Place(d, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures end-to-end trace generation for the
// whole suite.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range workload.Apps() {
			if _, err := a.Build(workload.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- ablation benchmarks (design-choice studies from DESIGN.md) ----

// BenchmarkAblationAssociativity regenerates the cache-associativity
// ablation (the paper's suggested fix for inter-thread thrashing),
// reporting the 4-way/direct-mapped execution-time ratio.
func BenchmarkAblationAssociativity(b *testing.B) {
	s := benchSuite()
	var rows []core.AssocRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.AssociativitySweep("Patch", "LOAD-BAL", 16, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].Normalized, "4way_vs_direct")
}

// BenchmarkAblationContexts regenerates the hardware-context sweep and
// reports the saturated measured efficiency.
func BenchmarkAblationContexts(b *testing.B) {
	s := benchSuite()
	var rows []core.ContextRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.ContextSweep("Water", 4, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].MeasuredEfficiency, "saturated_efficiency")
}

// BenchmarkAblationUniformity regenerates the sharing-uniformity sweep and
// reports how much of RANDOM's invalidation misses SHARE-REFS recovers in
// the pairwise-sharing regime (uniformity 0).
func BenchmarkAblationUniformity(b *testing.B) {
	s := benchSuite()
	var rows []core.UniformityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.UniformitySweep([]float64{1.0, 0.5, 0.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	if last.RandomInvPerKilo > 0 {
		b.ReportMetric(1-last.ShareRefsInvPerKilo/last.RandomInvPerKilo, "inv_recovered_at_u0")
	}
}

// BenchmarkWriteRunStudy regenerates the §4.2 write-run measurement for
// the whole suite and reports FFT's migratory percentage (paper: 73%).
func BenchmarkWriteRunStudy(b *testing.B) {
	s := benchSuite()
	var rows []core.WriteRunRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.WriteRunStudy(workload.Names())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "FFT" {
			b.ReportMetric(r.Stats.MigratoryPct(), "fft_migratory_%")
		}
	}
}

// BenchmarkAblationProtocol regenerates the coherence-protocol comparison
// and reports the update/invalidate execution-time ratio for LOAD-BAL.
func BenchmarkAblationProtocol(b *testing.B) {
	s := benchSuite()
	var rows []core.ProtocolRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.ProtocolComparison("Fullconn", 8, []string{"LOAD-BAL"})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 && rows[0].ExecTime > 0 {
		b.ReportMetric(float64(rows[1].ExecTime)/float64(rows[0].ExecTime), "update_vs_invalidate")
	}
}

// BenchmarkAblationLatency regenerates the memory-latency sweep and
// reports the LOAD-BAL gain at the longest latency (the conclusion must
// survive slow memory).
func BenchmarkAblationLatency(b *testing.B) {
	s := benchSuite()
	var rows []core.LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.LatencySweep("FFT", 8, []uint64{10, 50, 200})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].LoadBalGain, "loadbal_gain_at_200cy_%")
}

// BenchmarkAblationContention regenerates the interconnect-contention
// sweep and reports the single-channel slowdown.
func BenchmarkAblationContention(b *testing.B) {
	s := benchSuite()
	var rows []core.ContentionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.ContentionSweep("MP3D", "LOAD-BAL", 16, []int{0, 1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].Normalized, "one_channel_slowdown")
}

// BenchmarkAblationDynamic regenerates the static-vs-online-scheduling
// comparison and reports dynamic FIFO's execution time relative to the
// oracle static LOAD-BAL on FFT.
func BenchmarkAblationDynamic(b *testing.B) {
	s := benchSuite()
	var rows []core.DynamicRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.DynamicComparison([]string{"FFT", "Gauss"}, 8, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "FFT" {
			b.ReportMetric(r.DynamicFIFONorm, "fft_dynamic_vs_loadbal")
		}
	}
}
