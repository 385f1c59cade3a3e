package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pass selects the engine entry point a pass over the cells calls.
type pass int

const (
	passBare    pass = iota // sim.Run
	passProbed              // sim.RunObserved with a Counter and a Sampler
	passDynamic             // sim.RunDynamic (self-scheduling)
)

var passCall = [...]string{"sim.Run", "sim.RunObserved", "sim.RunDynamic"}

// engineCell is one simulation of engine-sweep: a placed trace on a
// machine, or a trace under a dynamic scheduling policy.
type engineCell struct {
	label  string
	tr     *trace.Trace
	pl     *placement.Placement // nil on dynamic cells
	cfg    sim.Config
	policy sim.SchedulePolicy
	finite bool   // the application's own cache, not the 8 MB one
	dial   string // "uniform" or "pairwise" on the synthetic apps
}

func (c *engineCell) run(p pass) (*sim.Result, error) {
	switch p {
	case passProbed:
		return sim.RunObserved(c.tr, c.pl, c.cfg, sim.FastEngine, obs.Multi(&obs.Counter{}, obs.NewSampler(10_000)))
	case passDynamic:
		return sim.RunDynamic(c.tr, c.cfg, c.policy)
	}
	return sim.Run(c.tr, c.pl, c.cfg)
}

// engineApp is one application of engine-sweep.
type engineApp struct {
	app  workload.App
	dial string
}

// engineApps returns the two paper applications and two points of the
// synthetic sharing dial: all sharing uniform with few writes, and all
// sharing pairwise with many. Varying the dial (and the cache size per
// cell) moves hit ratio and directory traffic, so a gain confined to the
// cache or to the directory shows on one point and not the other.
func engineApps() ([]engineApp, error) {
	var apps []engineApp
	for _, name := range []string{"LocusRoute", "MP3D"} {
		a, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		apps = append(apps, engineApp{app: a})
	}
	uniform := workload.DefaultSyntheticSpec()
	uniform.Name, uniform.Uniformity, uniform.WriteFrac = "Synthetic-uniform", 1, 0.25
	pairwise := workload.DefaultSyntheticSpec()
	pairwise.Name, pairwise.Uniformity, pairwise.WriteFrac = "Synthetic-pairwise", 0, 0.5
	for _, d := range []struct {
		spec workload.SyntheticSpec
		dial string
	}{{uniform, "uniform"}, {pairwise, "pairwise"}} {
		a, err := workload.Synthetic(d.spec)
		if err != nil {
			return nil, err
		}
		apps = append(apps, engineApp{app: a, dial: d.dial})
	}
	return apps, nil
}

// engineSet is engine-sweep's set-up: the static cells, and the dynamic
// cells that schedule the paper applications' traces at run time.
type engineSet struct {
	static, dynamic []*engineCell
}

// buildCells builds every trace, analyses it and places it with every
// static algorithm at every machine size. Each library call is timed
// into lay.
func buildCells(cfg config, lay *layers) (*engineSet, error) {
	apps, err := engineApps()
	if err != nil {
		return nil, err
	}
	// The library's default traces: the cells are the same on every run,
	// and the seed orders them and seeds the RANDOM placement.
	params := workload.DefaultParams()
	procs := []int{2, 4, 8, 16}
	algs := placement.All()
	if cfg.smoke {
		params.Scale, procs, algs = 0.1, []int{2, 4}, algs[:2]
	}
	set := &engineSet{}
	for _, ea := range apps {
		t0 := time.Now()
		tr, err := ea.app.Build(params)
		if err != nil {
			return nil, err
		}
		tr.TotalInstructions() // warm the lazy totals, as core.Suite does
		lay.add("workload.build_ms", ms(time.Since(t0)))

		machine := func(n int, finite bool) sim.Config {
			c := sim.DefaultConfig(n)
			c.CacheSize = sim.InfiniteCacheSize
			if finite {
				c.CacheSize = ea.app.CacheSize
			}
			return c
		}
		if ea.dial == "" {
			for _, pol := range []sim.SchedulePolicy{sim.FIFO, sim.LongestFirst} {
				for _, n := range procs {
					for _, finite := range []bool{true, false} {
						set.dynamic = append(set.dynamic, &engineCell{
							label: fmt.Sprintf("%s/%s/p%d/finite=%t", ea.app.Name, pol, n, finite),
							tr:    tr, cfg: machine(n, finite), policy: pol, finite: finite,
						})
					}
				}
			}
		}

		t0 = time.Now()
		sharing := analysis.Analyze(tr).Sharing()
		lay.add("analysis.analyze_ms", ms(time.Since(t0)))
		for _, alg := range algs {
			for _, n := range procs {
				t0 = time.Now()
				pl, err := alg.Place(sharing, n, randomSeed(cfg.seed, ea.app.Name, n))
				if err != nil {
					return nil, fmt.Errorf("place %s/%s/p%d: %w", ea.app.Name, alg.Name, n, err)
				}
				lay.add("placement.place_ms", ms(time.Since(t0)))
				for _, finite := range []bool{true, false} {
					set.static = append(set.static, &engineCell{
						label: fmt.Sprintf("%s/%s/p%d/finite=%t", ea.app.Name, alg.Name, n, finite),
						tr:    tr, pl: pl, cfg: machine(n, finite), finite: finite, dial: ea.dial,
					})
				}
			}
		}
	}
	return set, nil
}

// randomSeed gives the RANDOM placement a seed per (app, procs), derived
// from the workload seed.
func randomSeed(seed int64, app string, procs int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, app, procs)
	return int64(h.Sum64())
}

// call is one timed engine call.
type call struct {
	cell int
	d    time.Duration
	res  *sim.Result
}

// minPasses is the fewest passes a timed phase runs, so each metric can
// be the median over passes: a burst of load from outside the benchmark
// then moves at most one pass.
const minPasses = 3

// timedCalls runs whole passes over cells in order, on one goroutine,
// until dur has passed and at least passes have run: stopping only
// between passes keeps the measured mix of cells the same on every run,
// whatever the engine's speed. A non-nil lay records every call as a
// span.
func timedCalls(cells []*engineCell, order []int, p pass, passes int, dur time.Duration, lay *layers) ([]call, error) {
	var calls []call
	deadline := time.Now().Add(dur)
	for i := 0; i < passes*len(order) || i%len(order) != 0 || time.Now().Before(deadline); i++ {
		c := order[i%len(order)]
		t0 := time.Now()
		res, err := cells[c].run(p)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[c].label, err)
		}
		calls = append(calls, call{cell: c, d: d, res: res})
		if lay != nil {
			lay.span(passCall[p], cells[c].label, t0, d)
		}
	}
	return calls, nil
}

// callMetrics turns a timed phase of whole passes into the end-to-end
// metrics: each is the median of its per-pass values.
func callMetrics(calls []call, perPass int) map[string]float64 {
	var ops, cycles, p50, p90 []float64
	for i := 0; i < len(calls); i += perPass {
		var busy time.Duration
		var cyc float64
		lat := make([]float64, perPass)
		for j, c := range calls[i : i+perPass] {
			busy += c.d
			cyc += float64(c.res.ExecTime)
			lat[j] = ms(c.d)
		}
		ops = append(ops, float64(perPass)/busy.Seconds())
		cycles = append(cycles, cyc/busy.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	return map[string]float64{
		"ops_per_s":        quantile(ops, 0.5),
		"op_p50_ms":        quantile(p50, 0.5),
		"op_p90_ms":        quantile(p90, 0.5),
		"sim_cycles_per_s": quantile(cycles, 0.5),
	}
}

// divergent counts calls whose result differs from their cell's ref; a
// cell without one takes its first call's result.
func divergent(calls []call, ref []*sim.Result) int {
	n := 0
	for _, c := range calls {
		if ref[c.cell] == nil {
			ref[c.cell] = c.res
		}
		if !reflect.DeepEqual(c.res, ref[c.cell]) {
			n++
		}
	}
	return n
}

// runEngine drives engine-sweep: set-up builds and places every cell,
// then one goroutine runs sim.Run over the cells in a seeded order for
// the timed phase. No request or resolve layer runs. The traced run adds
// a traced bare phase, then one probed pass (each result must equal the
// bare one) and two dynamic passes (the second must repeat the first).
func runEngine(cfg config) (*outcome, error) {
	lay := newLayers()
	set, setupS, err := timeSetup(cfg.smoke,
		func() (*engineSet, error) { return buildCells(cfg, lay) },
		func(*engineSet) error { return nil })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(set.static))

	calls, err := timedCalls(set.static, order, passBare, minPasses, cfg.dur, nil)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	o := &outcome{attempted: len(calls), metrics: callMetrics(calls, len(set.static)), layers: lay}
	o.metrics["setup_s"] = setupS
	o.metrics["peak_rss_mb"] = rss
	// Outside the timed phase: every repeat of a cell must equal its
	// first result.
	ref := make([]*sim.Result, len(set.static))
	o.divergent = divergent(calls, ref)
	if !cfg.traced {
		return o, nil
	}

	traced, err := timedCalls(set.static, order, passBare, minPasses, cfg.dur, lay)
	if err != nil {
		return nil, err
	}
	base := o.metrics["ops_per_s"]
	lay.set("trace_overhead_pct", (base-callMetrics(traced, len(set.static))["ops_per_s"])/base*100)
	probed, err := timedCalls(set.static, order, passProbed, 1, 0, lay)
	if err != nil {
		return nil, err
	}
	dynamic, err := timedCalls(set.dynamic, rng.Perm(len(set.dynamic)), passDynamic, 2, 0, lay)
	if err != nil {
		return nil, err
	}
	o.attempted += len(traced) + len(probed) + len(dynamic)
	o.divergent += divergent(traced, ref) + divergent(probed, ref) +
		divergent(dynamic, make([]*sim.Result, len(set.dynamic)))

	engineLayers(set.static, traced, probed, dynamic, lay)
	setCounts(lay, ref)
	return o, lay.dump(cfg.spansOut)
}

// engineLayers fills the per-layer engine metrics: host time per call
// and per simulated reference from the traced bare phase, the probes'
// cost against it, and the dynamic passes' time per reference.
func engineLayers(cells []*engineCell, traced, probed, dynamic []call, lay *layers) {
	type acc struct{ ns, refs float64 }
	groups := make(map[string]*acc)
	add := func(g string, c call) {
		if groups[g] == nil {
			groups[g] = &acc{}
		}
		groups[g].ns += float64(c.d.Nanoseconds())
		groups[g].refs += float64(c.res.Totals().Refs)
	}
	var bare, withProbe time.Duration
	for _, c := range traced {
		lay.add("sim.engine_ms", ms(c.d))
		bare += c.d
		cell := cells[c.cell]
		if cell.finite {
			add("sim.ns_per_ref.finite", c)
		} else {
			add("sim.ns_per_ref.infinite", c)
		}
		if cell.dial != "" {
			add("sim.ns_per_ref."+cell.dial, c)
		}
	}
	for _, c := range probed {
		withProbe += c.d
	}
	for _, c := range dynamic {
		add("sim.dynamic_ns_per_ref", c)
	}
	for g, a := range groups {
		lay.set(g, a.ns/a.refs)
	}
	// The traced phase ran whole passes over the cells the probed pass
	// ran once.
	passes := float64(len(traced)) / float64(len(cells))
	lay.set("obs.probe_overhead_pct", (float64(withProbe)*passes/float64(bare)-1)*100)
}

// setCounts records the exact simulated statistics summed over results.
func setCounts(lay *layers, results []*sim.Result) {
	var t sim.ProcStats
	var cycles float64
	for _, r := range results {
		rt := r.Totals()
		cycles += float64(r.ExecTime)
		t.Refs += rt.Refs
		t.Hits += rt.Hits
		for k := range t.Misses {
			t.Misses[k] += rt.Misses[k]
		}
		t.InvalidationsSent += rt.InvalidationsSent
		t.Upgrades += rt.Upgrades
		t.Writebacks += rt.Writebacks
	}
	lay.set("sim.exec_cycles", cycles)
	lay.set("sim.refs", float64(t.Refs))
	if t.Refs > 0 {
		lay.set("sim.hit_ratio", float64(t.Hits)/float64(t.Refs))
	}
	lay.set("sim.misses.compulsory", float64(t.Misses[sim.Compulsory]))
	lay.set("sim.misses.intra", float64(t.Misses[sim.ConflictIntra]))
	lay.set("sim.misses.inter", float64(t.Misses[sim.ConflictInter]))
	lay.set("sim.misses.invalidation", float64(t.Misses[sim.InvalidationMiss]))
	lay.set("sim.invalidations_sent", float64(t.InvalidationsSent))
	lay.set("sim.upgrades", float64(t.Upgrades))
	lay.set("sim.writebacks", float64(t.Writebacks))
}
