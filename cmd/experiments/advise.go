package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/advise"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BENCH_advise.json: the online-adaptive-placement evaluation. Two
// experiments, one artifact:
//
//  1. A detection-interval x migration-cost grid of ONLINE virtual
//     algorithms swept over paper kernels through the real /v1/sweep
//     machinery (an in-process mtserve instance, exactly the production
//     job pipeline). On the paper's stationary kernels the sharing
//     pattern never changes, so a well-chosen static placement is
//     expected to win: HYST correctly refuses unprofitable migrations
//     and ties its seed, while eager COHERENCE pays churn. The grid
//     documents that negative result instead of hiding it.
//
//  2. The crossover: a phase-changing workload whose sharing partners
//     rotate mid-run, so no static placement can be right for the whole
//     execution. Here the same online policies beat the best of all
//     static algorithms — with the migration penalty charged — below a
//     measurable migration-cost crossover, which this benchmark locates
//     and hard-gates: generation fails unless at least one swept
//     (interval, cost) cell wins with at least one applied migration,
//     and every online cell must be cycle-identical on both engines.

// adviseCell is one simulated (algorithm, procs) measurement.
type adviseCell struct {
	Algorithm     string `json:"algorithm"`
	ExecTime      uint64 `json:"exec_time"`
	Migrations    int    `json:"migrations,omitempty"`
	PenaltyCycles uint64 `json:"penalty_cycles,omitempty"`
}

// adviseKernelReport is one stationary kernel's static-vs-online grid,
// measured through /v1/sweep.
type adviseKernelReport struct {
	App        string       `json:"app"`
	BestStatic adviseCell   `json:"best_static"`
	BestOnline adviseCell   `json:"best_online"`
	StaticWins bool         `json:"static_wins"`
	Cells      []adviseCell `json:"cells"`
}

// adviseGridCell is one (policy, interval, cost) cell of the phased
// crossover sweep.
type adviseGridCell struct {
	Policy        string `json:"policy"`
	Interval      uint64 `json:"interval"`
	Penalty       uint64 `json:"penalty"`
	Algorithm     string `json:"algorithm"`
	ExecTime      uint64 `json:"exec_time"`
	Migrations    int    `json:"migrations"`
	PenaltyCycles uint64 `json:"penalty_cycles"`
	BeatsStatic   bool   `json:"beats_static"`
}

// adviseCrossover records, for one (policy, interval), the largest swept
// migration cost at which online still beat the best static placement.
type adviseCrossover struct {
	Policy     string `json:"policy"`
	Interval   uint64 `json:"interval"`
	MaxWinCost uint64 `json:"max_winning_cost"`
	Wins       int    `json:"winning_cells"`
}

// phasedReport is the crossover experiment's result.
type phasedReport struct {
	Threads    int               `json:"threads"`
	Procs      int               `json:"procs"`
	Static     []adviseCell      `json:"static"`
	BestStatic adviseCell        `json:"best_static"`
	Grid       []adviseGridCell  `json:"grid"`
	BestOnline adviseGridCell    `json:"best_online"`
	Crossover  []adviseCrossover `json:"crossover"`
	// OnlineWins is the hard gate: at least one grid cell beat the best
	// static placement with the migration penalty charged.
	OnlineWins bool `json:"online_wins"`
}

// benchAdviseReport is the BENCH_advise.json schema.
type benchAdviseReport struct {
	Scale       float64              `json:"scale"`
	Seed        int64                `json:"seed"`
	Procs       int                  `json:"procs"`
	Kernels     []adviseKernelReport `json:"kernels"`
	Phased      *phasedReport        `json:"phased"`
	GeneratedBy string               `json:"generated_by"`
}

// adviseProcs is the processor count both experiments run at.
const adviseProcs = 4

// adviseKernelApps are the stationary kernels swept through /v1/sweep.
var adviseKernelApps = []string{"MP3D", "Gauss"}

// adviseKernelOnline is the ONLINE grid swept over the kernels.
func adviseKernelOnline() []string {
	var names []string
	for _, policy := range advise.PolicyNames() {
		for _, interval := range []uint64{5000, 20000} {
			spec := advise.OnlineSpec{Policy: policy, Interval: interval, Penalty: 200}
			names = append(names, spec.String())
		}
	}
	return names
}

// benchAdvise runs both experiments and writes the gated artifact.
func benchAdvise(scale float64, seed int64, path string) error {
	rep := benchAdviseReport{
		Scale:       scale,
		Seed:        seed,
		Procs:       adviseProcs,
		GeneratedBy: "experiments -advise",
	}

	kernels, err := adviseKernelSweep(scale, seed)
	if err != nil {
		return err
	}
	rep.Kernels = kernels

	fmt.Printf("advise: locating crossover on the phased workload\n")
	ph, err := phasedCrossover(seed)
	if err != nil {
		return err
	}
	rep.Phased = ph
	if !ph.OnlineWins {
		return fmt.Errorf("advise: gate failed: no swept (interval, cost) cell beats the best static placement (best static %s=%d, best online %s=%d)",
			ph.BestStatic.Algorithm, ph.BestStatic.ExecTime, ph.BestOnline.Algorithm, ph.BestOnline.ExecTime)
	}
	fmt.Printf("advise: online wins below cost crossover: best online %s = %d vs best static %s = %d\n",
		ph.BestOnline.Algorithm, ph.BestOnline.ExecTime, ph.BestStatic.Algorithm, ph.BestStatic.ExecTime)

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// adviseKernelSweep drives the static-vs-online kernel grid through an
// in-process mtserve instance's /v1/sweep job pipeline — the same
// machinery production sweeps use, so ONLINE virtual algorithm names are
// exercised end to end (validation, cache keys, job execution).
func adviseKernelSweep(scale float64, seed int64) ([]adviseKernelReport, error) {
	srv := serve.NewServer(serve.Options{DisableTelemetry: true})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain()
	}()

	statics := core.AllAlgorithms()
	online := adviseKernelOnline()
	req := &serve.SweepRequest{
		Params:     &serve.Params{Scale: scale, Seed: seed},
		Apps:       adviseKernelApps,
		Algorithms: append(append([]string{}, statics...), online...),
		Procs:      []int{adviseProcs},
	}
	fmt.Printf("advise: sweeping %d kernels x %d algorithms (%d online) x %d procs through /v1/sweep\n",
		len(req.Apps), len(req.Algorithms), len(online), adviseProcs)

	cl := client.New(ts.URL)
	acc, err := cl.Sweep(req)
	if err != nil {
		return nil, fmt.Errorf("advise: sweep submit: %w", err)
	}
	st, err := cl.WaitJob(acc.Job, 250*time.Millisecond, 30*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("advise: sweep wait: %w", err)
	}
	if st.Status != serve.StatusDone {
		return nil, fmt.Errorf("advise: sweep job %s ended %s: %s", st.Job, st.Status, st.Error)
	}

	onlineSet := map[string]bool{}
	for _, name := range online {
		onlineSet[name] = true
	}
	byApp := map[string]*adviseKernelReport{}
	var out []adviseKernelReport
	for _, app := range adviseKernelApps {
		out = append(out, adviseKernelReport{App: app})
	}
	for i := range out {
		byApp[out[i].App] = &out[i]
	}
	for _, cell := range st.Results {
		if cell.Result == nil {
			return nil, fmt.Errorf("advise: cell %s/%s came back without a result", cell.App, cell.Algorithm)
		}
		kr, ok := byApp[cell.App]
		if !ok {
			return nil, fmt.Errorf("advise: unexpected app %q in sweep results", cell.App)
		}
		c := adviseCell{Algorithm: cell.Algorithm, ExecTime: cell.Result.ExecTime}
		if onl := cell.Result.Online; onl != nil {
			c.Migrations = onl.Migrations
			c.PenaltyCycles = onl.PenaltyCycles
		} else if onlineSet[cell.Algorithm] {
			return nil, fmt.Errorf("advise: online cell %s/%s is missing its online stats", cell.App, cell.Algorithm)
		}
		kr.Cells = append(kr.Cells, c)
		better := func(best *adviseCell) {
			if best.Algorithm == "" || c.ExecTime < best.ExecTime {
				*best = c
			}
		}
		if onlineSet[cell.Algorithm] {
			better(&kr.BestOnline)
		} else {
			better(&kr.BestStatic)
		}
	}
	for i := range out {
		kr := &out[i]
		if kr.BestStatic.Algorithm == "" || kr.BestOnline.Algorithm == "" {
			return nil, fmt.Errorf("advise: kernel %s sweep returned an incomplete grid", kr.App)
		}
		kr.StaticWins = kr.BestStatic.ExecTime <= kr.BestOnline.ExecTime
		fmt.Printf("advise: %s best static %s = %d, best online %s = %d\n",
			kr.App, kr.BestStatic.Algorithm, kr.BestStatic.ExecTime,
			kr.BestOnline.Algorithm, kr.BestOnline.ExecTime)
	}
	return out, nil
}

// phasedThreads is the phased workload's thread count.
const phasedThreads = 8

// phasedTrace builds the phase-changing workload: 8 threads whose
// sharing partners rotate mid-run. Phase one pairs adjacent threads
// ((0,1),(2,3),(4,5),(6,7)), each pair ping-ponging a private line with
// light traffic; phase two rotates the matching to (0,2),(1,3),(4,6),
// (5,7) with much denser traffic. The two matchings are disjoint, so a
// load-balanced static placement (two threads per processor) co-locates
// at most one partner per thread — whichever phase it optimizes for, the
// other phase's traffic goes remote. The heavy second phase dominates
// whole-run sharing data, steering every static algorithm toward the
// phase-two matching and leaving phase one as the margin an online
// policy can reclaim by migrating at the phase boundary.
func phasedTrace() *trace.Trace {
	tr := trace.New("phased", phasedThreads)
	for t := 0; t < phasedThreads; t++ {
		r := trace.NewRecorder(tr, t)
		lineA := trace.SharedBase + uint64(t/2)*64*trace.WordSize
		for j := 0; j < 400; j++ {
			r.Compute(4)
			r.Store(lineA)
		}
		pairB := (t/4)*2 + t%2
		lineB := trace.SharedBase + uint64(64+pairB)*64*trace.WordSize
		for j := 0; j < 1600; j++ {
			r.Compute(2)
			r.Store(lineB)
		}
	}
	return tr
}

// phasedGrid is the swept (policy, interval, cost) cross product.
func phasedGrid() []advise.OnlineSpec {
	var specs []advise.OnlineSpec
	for _, policy := range advise.PolicyNames() {
		for _, interval := range []uint64{2000, 8000, 30000} {
			for _, cost := range []uint64{0, 500, 2000, 10000, 50000} {
				specs = append(specs, advise.OnlineSpec{Policy: policy, Interval: interval, Penalty: cost})
			}
		}
	}
	return specs
}

// phasedCrossover measures every static algorithm and the full online
// grid on the phased workload and locates the migration-cost crossover.
// (advise_test.go checks every online cell of the grid against the
// reference engine.)
func phasedCrossover(seed int64) (*phasedReport, error) {
	tr := phasedTrace()
	cfg := sim.DefaultConfig(adviseProcs)
	d := analysis.Analyze(tr).Sharing()

	rep := &phasedReport{Threads: phasedThreads, Procs: adviseProcs}
	for _, alg := range placement.All() {
		pl, err := alg.Place(d, adviseProcs, seed)
		if err != nil {
			return nil, fmt.Errorf("advise: phased %s placement: %w", alg.Name, err)
		}
		res, err := sim.Run(tr, pl, cfg)
		if err != nil {
			return nil, fmt.Errorf("advise: phased %s run: %w", alg.Name, err)
		}
		c := adviseCell{Algorithm: alg.Name, ExecTime: res.ExecTime}
		rep.Static = append(rep.Static, c)
		if rep.BestStatic.Algorithm == "" || c.ExecTime < rep.BestStatic.ExecTime {
			rep.BestStatic = c
		}
	}

	seedAlg, err := placement.ByName(advise.DefaultSeed)
	if err != nil {
		return nil, err
	}
	seedPl, err := seedAlg.Place(d, adviseProcs, seed)
	if err != nil {
		return nil, err
	}
	cross := map[[2]string]*adviseCrossover{}
	for _, spec := range phasedGrid() {
		opts, err := spec.Options()
		if err != nil {
			return nil, err
		}
		res, err := sim.RunOnline(tr, seedPl, cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("advise: phased %s run: %w", spec.String(), err)
		}
		if res.Online == nil {
			return nil, fmt.Errorf("advise: %s ran without online stats", spec.String())
		}
		cell := adviseGridCell{
			Policy:        spec.Policy,
			Interval:      spec.Interval,
			Penalty:       spec.Penalty,
			Algorithm:     spec.String(),
			ExecTime:      res.ExecTime,
			Migrations:    res.Online.Migrations,
			PenaltyCycles: res.Online.PenaltyCycles,
		}
		cell.BeatsStatic = cell.ExecTime < rep.BestStatic.ExecTime && cell.Migrations > 0
		rep.Grid = append(rep.Grid, cell)
		if cell.BeatsStatic {
			rep.OnlineWins = true
			key := [2]string{spec.Policy, fmt.Sprint(spec.Interval)}
			co := cross[key]
			if co == nil {
				co = &adviseCrossover{Policy: spec.Policy, Interval: spec.Interval}
				cross[key] = co
				rep.Crossover = append(rep.Crossover, adviseCrossover{})
			}
			co.Wins++
			if spec.Penalty > co.MaxWinCost {
				co.MaxWinCost = spec.Penalty
			}
		}
		if rep.BestOnline.Algorithm == "" || cell.ExecTime < rep.BestOnline.ExecTime {
			rep.BestOnline = cell
		}
	}
	// Rebuild the crossover list in grid order (policy, then interval).
	rep.Crossover = rep.Crossover[:0]
	for _, policy := range advise.PolicyNames() {
		for _, interval := range []uint64{2000, 8000, 30000} {
			if co := cross[[2]string{policy, fmt.Sprint(interval)}]; co != nil {
				rep.Crossover = append(rep.Crossover, *co)
			}
		}
	}
	return rep, nil
}
