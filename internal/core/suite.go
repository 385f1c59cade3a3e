// Package core orchestrates the paper's experiments: it builds the
// fourteen-application workload, derives the static sharing data, computes
// every placement, drives the simulator, and produces the data behind each
// of the paper's tables and figures (Tables 1-5, Figures 2-5).
package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options configures a Suite.
type Options struct {
	// Params controls workload generation (scale and seed).
	Params workload.Params
	// ProcCounts are the processor configurations swept by the figures;
	// the paper uses 2, 4, 8 and 16.
	ProcCounts []int
	// RandomSeed seeds the RANDOM placement algorithm.
	RandomSeed int64
	// Parallelism bounds concurrent simulations (default: NumCPU).
	Parallelism int
	// Runner, when non-nil, replaces sim.Run for every static-placement
	// simulation the suite performs. Installing a runner — typically a
	// resilience.EngineGuard's Run method — threads a watchdog through
	// every cell of a sweep.
	Runner func(*trace.Trace, *placement.Placement, sim.Config) (*sim.Result, error)
	// DynRunner is the same hook for dynamic-scheduling simulations;
	// nil means sim.RunDynamic.
	DynRunner func(*trace.Trace, sim.Config, sim.SchedulePolicy) (*sim.Result, error)
}

// DefaultOptions returns the paper's configuration sweep at the library's
// default workload scale.
func DefaultOptions() Options {
	return Options{
		Params:     workload.DefaultParams(),
		ProcCounts: []int{2, 4, 8, 16},
		RandomSeed: 1,
	}
}

// Suite lazily builds and caches traces, analyses, coherence
// measurements, placements and simulation results for the application
// suite. It is safe for concurrent use. Cached values (including the
// *sim.Result and *placement.Placement returned by RunOne, Place and
// friends) are shared between callers and must be treated as read-only.
type Suite struct {
	opts Options

	mu        sync.Mutex
	traces    map[string]*trace.Trace
	sets      map[string]*analysis.Set
	sharing   map[string]*analysis.SharingData
	coherence map[string]*coherenceCell
	places    map[placeKey]*placeCell
	sims      map[simKey]*simCell
}

// coherenceCell is a once-guarded coherence measurement, the same
// discipline as placeCell: concurrent first callers share one run.
type coherenceCell struct {
	once   sync.Once
	matrix [][]uint64
	result *sim.Result
	err    error
}

// placeKey identifies one memoized placement computation. The RANDOM
// algorithm's seed is a pure function of (app, procs) within a suite, so
// the key is complete.
type placeKey struct {
	app, alg string
	procs    int
}

// placeCell is a once-guarded placement computation, so concurrent
// requests for the same cell compute it exactly once without holding the
// suite lock across the (potentially expensive) clustering.
type placeCell struct {
	once sync.Once
	pl   *placement.Placement
	err  error
}

// simKey identifies one memoized simulation: the application, the exact
// placement (algorithm name plus every cluster's thread list — an exact
// encoding, not a lossy hash) and the full simulator configuration
// (comparable: all fields are scalars). Figure sweeps that revisit
// identical cells hit this cache instead of re-simulating.
type simKey struct {
	app       string
	placement string
	cfg       sim.Config
}

// simCell is a once-guarded simulation, the same discipline as placeCell.
type simCell struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// PlacementKey encodes a placement exactly (collision-free): the
// algorithm name plus every cluster's thread list. It is the Suite's own
// memoization key for simulation cells, exported so other caches — the
// serving layer's content-addressed result cache in particular — key on
// the identical cell identity instead of reinventing a lossy one.
func PlacementKey(pl *placement.Placement) string {
	var b strings.Builder
	b.WriteString(pl.Algorithm)
	for _, cluster := range pl.Clusters {
		b.WriteByte('|')
		for j, tid := range cluster {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(tid))
		}
	}
	return b.String()
}

// NewSuite returns a Suite over the given options.
func NewSuite(opts Options) *Suite {
	if len(opts.ProcCounts) == 0 {
		opts.ProcCounts = []int{2, 4, 8, 16}
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	return &Suite{
		opts:      opts,
		traces:    make(map[string]*trace.Trace),
		sets:      make(map[string]*analysis.Set),
		sharing:   make(map[string]*analysis.SharingData),
		coherence: make(map[string]*coherenceCell),
		places:    make(map[placeKey]*placeCell),
		sims:      make(map[simKey]*simCell),
	}
}

// Options returns the suite's configuration.
func (s *Suite) Options() Options { return s.opts }

// simRun dispatches one static-placement simulation through the
// configured Runner (sim.Run by default). Every simulation the suite
// performs funnels through here or dynRun, so an installed runner sees
// the whole sweep.
func (s *Suite) simRun(tr *trace.Trace, pl *placement.Placement, cfg sim.Config) (*sim.Result, error) {
	if s.opts.Runner != nil {
		return s.opts.Runner(tr, pl, cfg)
	}
	return sim.Run(tr, pl, cfg)
}

// dynRun dispatches one dynamic-scheduling simulation through the
// configured DynRunner (sim.RunDynamic by default).
func (s *Suite) dynRun(tr *trace.Trace, cfg sim.Config, policy sim.SchedulePolicy) (*sim.Result, error) {
	if s.opts.DynRunner != nil {
		return s.opts.DynRunner(tr, cfg, policy)
	}
	return sim.RunDynamic(tr, cfg, policy)
}

// Trace returns the application's (cached) trace.
func (s *Suite) Trace(app string) (*trace.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traceLocked(app)
}

func (s *Suite) traceLocked(app string) (*trace.Trace, error) {
	if tr, ok := s.traces[app]; ok {
		return tr, nil
	}
	a, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	tr, err := a.Build(s.opts.Params)
	if err != nil {
		return nil, err
	}
	// Warm the lazily computed per-thread totals so the trace is
	// strictly read-only during concurrent simulation.
	tr.TotalInstructions()
	s.traces[app] = tr
	return tr, nil
}

// Set returns the application's (cached) static analysis.
func (s *Suite) Set(app string) (*analysis.Set, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setLocked(app)
}

func (s *Suite) setLocked(app string) (*analysis.Set, error) {
	if set, ok := s.sets[app]; ok {
		return set, nil
	}
	tr, err := s.traceLocked(app)
	if err != nil {
		return nil, err
	}
	set := analysis.Analyze(tr)
	s.sets[app] = set
	return set, nil
}

// Sharing returns the application's (cached) pairwise sharing data. It
// derives the data from the cached static analysis when Set has built
// one, and otherwise from an analysis it does not keep: placement and
// serving read only the sharing data, and the per-thread profiles are
// most of an analysis's memory.
func (s *Suite) Sharing(app string) (*analysis.SharingData, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.sharing[app]; ok {
		return d, nil
	}
	set, ok := s.sets[app]
	if !ok {
		tr, err := s.traceLocked(app)
		if err != nil {
			return nil, err
		}
		set = analysis.Analyze(tr)
	}
	d := set.Sharing()
	s.sharing[app] = d
	return d, nil
}

// Config returns the simulator configuration the paper would use for this
// application and processor count.
func (s *Suite) Config(app string, procs int, infinite bool) (sim.Config, error) {
	a, err := workload.ByName(app)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(procs)
	cfg.CacheSize = a.CacheSize
	if infinite {
		// §4.3: "We approximated infinite caches with 8MB caches".
		cfg.CacheSize = sim.InfiniteCacheSize
	}
	return cfg, nil
}

// randomSeed derives the seed of the RANDOM placement for a given app and
// processor count: deterministic, but distinct across configurations.
func (s *Suite) randomSeed(app string, procs int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", app, procs)
	return s.opts.RandomSeed ^ int64(h.Sum64())
}

// Place computes the named algorithm's placement for the application,
// memoized per (app, algorithm, procs). The returned placement is shared;
// treat it as read-only.
func (s *Suite) Place(app, alg string, procs int) (*placement.Placement, error) {
	key := placeKey{app: app, alg: alg, procs: procs}
	s.mu.Lock()
	cell, ok := s.places[key]
	if !ok {
		cell = &placeCell{}
		s.places[key] = cell
	}
	s.mu.Unlock()
	cell.once.Do(func() {
		d, err := s.Sharing(app)
		if err != nil {
			cell.err = err
			return
		}
		a, err := placement.ByName(alg)
		if err != nil {
			cell.err = err
			return
		}
		cell.pl, cell.err = a.Place(d, procs, s.randomSeed(app, procs))
	})
	return cell.pl, cell.err
}

// RunOne simulates one (application, algorithm, processors) cell.
func (s *Suite) RunOne(app, alg string, procs int, infinite bool) (*sim.Result, error) {
	pl, err := s.Place(app, alg, procs)
	if err != nil {
		return nil, err
	}
	return s.runPlacement(app, pl, procs, infinite)
}

// runPlacement simulates (app, placement, config), memoized on the exact
// cell so sweeps that revisit identical cells (figures and tables share
// many) reuse the result instead of re-simulating. The returned result is
// shared; treat it as read-only.
func (s *Suite) runPlacement(app string, pl *placement.Placement, procs int, infinite bool) (*sim.Result, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	cfg, err := s.Config(app, procs, infinite)
	if err != nil {
		return nil, err
	}
	key := simKey{app: app, placement: PlacementKey(pl), cfg: cfg}
	s.mu.Lock()
	cell, ok := s.sims[key]
	if !ok {
		cell = &simCell{}
		s.sims[key] = cell
	}
	s.mu.Unlock()
	cell.once.Do(func() {
		cell.res, cell.err = s.simRun(tr, pl, cfg)
	})
	return cell.res, cell.err
}

// AlgResult pairs an algorithm name with its simulation result.
type AlgResult struct {
	Name   string
	Result *sim.Result
}

// RunAlgorithms simulates the named algorithms concurrently and returns
// results in the same order.
func (s *Suite) RunAlgorithms(app string, algs []string, procs int, infinite bool) ([]AlgResult, error) {
	out := make([]AlgResult, len(algs))
	errs := make([]error, len(algs))
	sem := make(chan struct{}, s.opts.Parallelism)
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := s.RunOne(app, alg, procs, infinite)
			out[i] = AlgResult{Name: alg, Result: res}
			errs[i] = err
		}(i, alg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %s/%s/%dp: %w", app, algs[i], procs, err)
		}
	}
	return out, nil
}

// CoherenceMeasurement returns the dynamically measured pairwise coherence
// traffic for the application (§4.2): a simulation with one thread per
// processor and as many processors as threads, so traffic between
// processor pairs equals traffic between thread pairs. The result is
// cached.
func (s *Suite) CoherenceMeasurement(app string) ([][]uint64, *sim.Result, error) {
	s.mu.Lock()
	cell, ok := s.coherence[app]
	if !ok {
		cell = &coherenceCell{}
		s.coherence[app] = cell
	}
	s.mu.Unlock()
	cell.once.Do(func() {
		tr, err := s.Trace(app)
		if err != nil {
			cell.err = err
			return
		}
		n := tr.NumThreads()
		cfg, err := s.Config(app, n, false)
		if err != nil {
			cell.err = err
			return
		}
		res, err := s.simRun(tr, placement.OnePerProcessor(n), cfg)
		if err != nil {
			cell.err = err
			return
		}
		cell.matrix, cell.result = res.PairTrafficSym(), res
	})
	return cell.matrix, cell.result, cell.err
}

// RunCoherencePlacement simulates the dynamic COHERENCE placement (§4.2):
// clustering by measured pairwise coherence traffic — the best placement a
// sharing-based algorithm could possibly produce.
func (s *Suite) RunCoherencePlacement(app string, procs int, infinite bool) (*sim.Result, error) {
	matrix, _, err := s.CoherenceMeasurement(app)
	if err != nil {
		return nil, err
	}
	d, err := s.Sharing(app)
	if err != nil {
		return nil, err
	}
	alg := placement.CoherenceTraffic(matrix)
	pl, err := alg.Place(d, procs, 0)
	if err != nil {
		return nil, err
	}
	return s.runPlacement(app, pl, procs, infinite)
}

// SharingAlgorithms returns the names of the six static sharing-based
// (thread-balanced) algorithms.
func SharingAlgorithms() []string {
	return []string{"SHARE-REFS", "SHARE-ADDR", "MIN-PRIV", "MIN-INVS", "MAX-WRITES", "MIN-SHARE"}
}

// AllAlgorithms returns every static algorithm name in the paper's order.
func AllAlgorithms() []string { return placement.Names() }
