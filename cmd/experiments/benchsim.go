package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/workload"
)

// engineBench is one engine's measurement over the benchmark cells.
type engineBench struct {
	Seconds         float64 `json:"seconds"`
	Cells           int     `json:"cells"`
	CyclesSimulated uint64  `json:"cycles_simulated"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
}

// benchSimReport is the BENCH_sim.json schema: the engine's throughput
// over the cells, at the application's cache and at the paper's 8 MB
// stand-in for an infinite cache (Table 5), its throughput with a probe
// attached (the observability layer's measured cost), and the memoized
// sweep's first-vs-second-call wall time. The engine-vs-oracle ratio
// lives in bench_test.go (BenchmarkEngineReference), not here: no
// production path runs the reference engine.
type benchSimReport struct {
	App              string      `json:"app"`
	Scale            float64     `json:"scale"`
	Seed             int64       `json:"seed"`
	ProcCounts       []int       `json:"proc_counts"`
	Algorithms       []string    `json:"algorithms"`
	Fast             engineBench `json:"fast"`
	FastInfinite     engineBench `json:"fast_infinite"`
	FastProbeOn      engineBench `json:"fast_probe_on"`
	ProbeOverheadPct float64     `json:"probe_overhead_pct"`
	MemoFirstSecs    float64     `json:"memoized_figure_first_call_seconds"`
	MemoSecondSecs   float64     `json:"memoized_figure_second_call_seconds"`
	MemoSpeedup      float64     `json:"memoized_figure_speedup"`
	// Resilience cost on the memoized sweep path: the engine guard with
	// its watchdog armed (the wrapper and the per-event step count).
	GuardMemoSecs    float64 `json:"guarded_figure_first_call_seconds"`
	GuardOverheadPct float64 `json:"guard_overhead_pct"`
	GeneratedBy      string  `json:"generated_by"`
}

// benchSim times the engine sequentially over every (algorithm,
// processor-count) cell of the Figure 2 application, bare, bare at 8 MB
// and probed, and writes the numbers to path. Engine calls bypass the
// suite's memoization so each cell is genuinely re-simulated; a separate
// pass times the memoized ExecutionFigure sweep itself (first call
// simulates, second is served from cache).
func benchSim(scale float64, seed int64, procsSpec, path string) error {
	pcs, err := parseProcs(procsSpec)
	if err != nil {
		return err
	}
	const app = "LocusRoute"
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: scale, Seed: seed}
	opts.ProcCounts = pcs
	s := core.NewSuite(opts)

	rep := benchSimReport{
		App:         app,
		Scale:       scale,
		Seed:        seed,
		ProcCounts:  pcs,
		Algorithms:  core.AllAlgorithms(),
		GeneratedBy: "experiments -benchsim",
	}

	tr, err := s.Trace(app)
	if err != nil {
		return err
	}
	// infinite selects the 8 MB cache; newProbe, when non-nil, supplies a
	// fresh probe per cell (a counter plus a 10k-cycle sampler — the
	// stack a telemetry-enabled sweep would attach).
	measure := func(infinite bool, newProbe func() obs.Probe) (engineBench, error) {
		var b engineBench
		t0 := time.Now()
		for _, procs := range pcs {
			cfg, err := s.Config(app, procs, infinite)
			if err != nil {
				return b, err
			}
			for _, alg := range rep.Algorithms {
				pl, err := s.Place(app, alg, procs)
				if err != nil {
					return b, err
				}
				var probe obs.Probe
				if newProbe != nil {
					probe = newProbe()
				}
				res, err := sim.RunObserved(tr, pl, cfg, sim.FastEngine, probe)
				if err != nil {
					return b, err
				}
				b.Cells++
				b.CyclesSimulated += res.ExecTime
			}
		}
		b.Seconds = time.Since(t0).Seconds()
		b.CyclesPerSec = float64(b.CyclesSimulated) / b.Seconds
		return b, nil
	}

	fmt.Printf("benchsim: %s, %d algorithms x %v processors, scale %g\n", app, len(rep.Algorithms), pcs, scale)
	if rep.Fast, err = measure(false, nil); err != nil {
		return err
	}
	fmt.Printf("  fast:      %d cells in %.2fs (%.3g cycles/s)\n", rep.Fast.Cells, rep.Fast.Seconds, rep.Fast.CyclesPerSec)
	if rep.FastInfinite, err = measure(true, nil); err != nil {
		return err
	}
	fmt.Printf("  fast 8MB:  %d cells in %.2fs (%.3g cycles/s)\n",
		rep.FastInfinite.Cells, rep.FastInfinite.Seconds, rep.FastInfinite.CyclesPerSec)

	if rep.FastProbeOn, err = measure(false, func() obs.Probe {
		return obs.Multi(&obs.Counter{}, obs.NewSampler(10_000))
	}); err != nil {
		return err
	}
	if rep.FastProbeOn.CyclesSimulated != rep.Fast.CyclesSimulated {
		return fmt.Errorf("probe perturbed the simulation: bare %d cycles, probed %d",
			rep.Fast.CyclesSimulated, rep.FastProbeOn.CyclesSimulated)
	}
	rep.ProbeOverheadPct = (rep.Fast.CyclesPerSec/rep.FastProbeOn.CyclesPerSec - 1) * 100
	fmt.Printf("  fast+probe: %d cells in %.2fs (%.3g cycles/s, %.1f%% overhead)\n",
		rep.FastProbeOn.Cells, rep.FastProbeOn.Seconds, rep.FastProbeOn.CyclesPerSec, rep.ProbeOverheadPct)

	// Memoized sweep: a fresh suite so the first call pays for every
	// simulation and the second call is pure cache.
	ms := core.NewSuite(opts)
	t0 := time.Now()
	if _, err := ms.ExecutionFigure(app); err != nil {
		return err
	}
	rep.MemoFirstSecs = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := ms.ExecutionFigure(app); err != nil {
		return err
	}
	rep.MemoSecondSecs = time.Since(t0).Seconds()
	if rep.MemoSecondSecs > 0 {
		rep.MemoSpeedup = rep.MemoFirstSecs / rep.MemoSecondSecs
	}
	fmt.Printf("  memoized ExecutionFigure: first %.2fs, second %.6fs\n", rep.MemoFirstSecs, rep.MemoSecondSecs)

	// Guarded sweep: the identical fresh-suite sweep with the engine
	// guard's watchdog armed, pricing the per-event step count and the
	// wrapper itself.
	g := &resilience.EngineGuard{Guard: sim.Guard{MaxSteps: 1 << 62}}
	gopts := opts
	gopts.Runner = g.Run
	gopts.DynRunner = g.RunDynamic
	t0 = time.Now()
	if _, err := core.NewSuite(gopts).ExecutionFigure(app); err != nil {
		return err
	}
	rep.GuardMemoSecs = time.Since(t0).Seconds()
	rep.GuardOverheadPct = (rep.GuardMemoSecs/rep.MemoFirstSecs - 1) * 100
	fmt.Printf("  guarded ExecutionFigure (watchdog): %.2fs (%.1f%% overhead)\n",
		rep.GuardMemoSecs, rep.GuardOverheadPct)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
