package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablation experiments: design-choice studies beyond the paper's tables
// and figures, each probing one of the paper's explanations directly.

// ---- associativity ----

// AssocRow is one point of the associativity ablation.
type AssocRow struct {
	Associativity int
	ExecTime      uint64
	// Normalized is ExecTime over the direct-mapped ExecTime.
	Normalized float64
	// InterConflictsPerKilo is inter-thread conflict misses per 1000
	// references — the component the paper's §4.1 thrashing anomaly
	// lives in ("Set associative caching would address this problem").
	InterConflictsPerKilo float64
	TotalMissesPerKilo    float64
}

// AssociativitySweep runs one application/placement across cache
// associativities. The paper observed thrashing between co-located
// threads (Patch at 16 processors) and names associativity as the fix.
func (s *Suite) AssociativitySweep(app, alg string, procs int, assocs []int) ([]AssocRow, error) {
	pl, err := s.Place(app, alg, procs)
	if err != nil {
		return nil, err
	}
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	var rows []AssocRow
	var base uint64
	for _, ways := range assocs {
		cfg, err := s.Config(app, procs, false)
		if err != nil {
			return nil, err
		}
		cfg.Associativity = ways
		res, err := s.simRun(tr, pl, cfg)
		if err != nil {
			return nil, err
		}
		tot := res.Totals()
		if base == 0 {
			base = res.ExecTime
		}
		rows = append(rows, AssocRow{
			Associativity:         ways,
			ExecTime:              res.ExecTime,
			Normalized:            float64(res.ExecTime) / float64(base),
			InterConflictsPerKilo: float64(tot.Misses[sim.ConflictInter]) / float64(tot.Refs) * 1000,
			TotalMissesPerKilo:    float64(tot.TotalMisses()) / float64(tot.Refs) * 1000,
		})
	}
	return rows, nil
}

// AssocReport renders the associativity ablation.
func AssocReport(app, alg string, procs int, rows []AssocRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: cache associativity (%s, %s, %d processors)", app, alg, procs),
		Note:    "(the paper suggests associativity as the fix for inter-thread cache thrashing, §4.1)",
		Columns: []string{"Ways", "Exec time", "vs direct", "Inter-thread conflicts /1k", "Total misses /1k"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Associativity), fmt.Sprint(r.ExecTime), report.F(r.Normalized, 3),
			report.F(r.InterConflictsPerKilo, 2), report.F(r.TotalMissesPerKilo, 2))
	}
	return t
}

// ---- hardware contexts ----

// ContextRow is one point of the hardware-context sweep.
type ContextRow struct {
	Contexts int
	ExecTime uint64
	// MeasuredEfficiency is busy cycles over total processor cycles
	// (busy+switch+idle), the simulator's processor utilization.
	MeasuredEfficiency float64
	// Deterministic and MVA are the analytical models' predictions for
	// the same machine parameters.
	Deterministic float64
	MVA           float64
}

// ContextSweep varies the number of hardware contexts per processor
// (Table 3 lists it as a simulator input) and compares the measured
// processor efficiency against the analytical models of the related work
// (§5: Weber & Gupta, Saavedra-Barrera).
func (s *Suite) ContextSweep(app string, procs int, contexts []int) ([]ContextRow, error) {
	tr, err := s.Trace(app)
	if err != nil {
		return nil, err
	}
	pl, err := s.Place(app, "LOAD-BAL", procs)
	if err != nil {
		return nil, err
	}
	var rows []ContextRow
	for _, n := range contexts {
		cfg, err := s.Config(app, procs, false)
		if err != nil {
			return nil, err
		}
		cfg.MaxContexts = n
		res, err := s.simRun(tr, pl, cfg)
		if err != nil {
			return nil, err
		}
		tot := res.Totals()
		cycles := float64(tot.Busy + tot.Switch + tot.Idle)
		measured := 0.0
		if cycles > 0 {
			measured = float64(tot.Busy) / cycles
		}
		// Fit the analytical machine from the run itself: mean useful
		// run length between blocking transactions.
		transactions := float64(tot.TotalMisses() + tot.Upgrades)
		m := model.Machine{
			RunLength:  float64(tot.Busy) / maxf(transactions, 1),
			Latency:    float64(cfg.MemLatency),
			SwitchCost: float64(cfg.SwitchCycles),
		}
		effContexts := n
		if perProc := (tr.NumThreads() + procs - 1) / procs; n == 0 || n > perProc {
			effContexts = perProc
		}
		rows = append(rows, ContextRow{
			Contexts:           effContexts,
			ExecTime:           res.ExecTime,
			MeasuredEfficiency: measured,
			Deterministic:      m.EfficiencyDeterministic(effContexts),
			MVA:                m.EfficiencyMVA(effContexts),
		})
	}
	return rows, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ContextReport renders the context sweep.
func ContextReport(app string, procs int, rows []ContextRow) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: hardware contexts per processor (%s, LOAD-BAL, %d processors)", app, procs),
		Note:    "(measured processor efficiency vs the deterministic and machine-repairman (MVA) models of §5's related work)",
		Columns: []string{"Contexts", "Exec time", "Measured eff", "Deterministic model", "MVA model"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Contexts), fmt.Sprint(r.ExecTime),
			report.F(r.MeasuredEfficiency, 3), report.F(r.Deterministic, 3), report.F(r.MVA, 3))
	}
	return t
}

// ---- sharing uniformity ----

// UniformityRow is one point of the sharing-uniformity sweep.
type UniformityRow struct {
	Uniformity float64
	// Normalized execution times vs RANDOM for the three placements.
	ShareRefs float64
	KLShare   float64
	LoadBal   float64
	// ShareRefsInvPerKilo is SHARE-REFS' invalidation misses per 1000
	// references; RandomInvPerKilo is RANDOM's.
	ShareRefsInvPerKilo float64
	RandomInvPerKilo    float64
}

// UniformitySweep generates synthetic workloads whose sharing uniformity
// varies from the paper's regime (1.0: every thread pair shares equally)
// to strongly pairwise sharing (0.0), and measures whether sharing-based
// placement starts to win. It tests the paper's §4.2 explanation directly:
// sharing-based placement fails *because* real sharing is uniform; with
// structured sharing it should recover invalidation misses.
func (s *Suite) UniformitySweep(uniformities []float64) ([]UniformityRow, error) {
	var rows []UniformityRow
	for _, u := range uniformities {
		spec := workload.DefaultSyntheticSpec()
		spec.Uniformity = u
		// Uniform thread lengths isolate the sharing effect from load
		// balance noise.
		spec.LengthSkew = 0
		spec.WriteFrac = 0.35
		spec.Name = fmt.Sprintf("Synthetic-u%.2f", u)
		app, err := workload.Synthetic(spec)
		if err != nil {
			return nil, err
		}
		tr, err := app.Build(s.opts.Params)
		if err != nil {
			return nil, err
		}
		d := analysis.Analyze(tr).Sharing()

		const procs = 8
		cfg := sim.DefaultConfig(procs)
		cfg.CacheSize = app.CacheSize

		runAlg := func(name string) (*sim.Result, error) {
			var pl *placement.Placement
			var err error
			switch name {
			case "KL-SHARE":
				pl, err = placement.KLShare(d, procs, placement.DefaultLoadSlack)
			default:
				var alg placement.Algorithm
				alg, err = placement.ByName(name)
				if err == nil {
					pl, err = alg.Place(d, procs, s.opts.RandomSeed)
				}
			}
			if err != nil {
				return nil, err
			}
			return s.simRun(tr, pl, cfg)
		}

		random, err := runAlg("RANDOM")
		if err != nil {
			return nil, err
		}
		shareRefs, err := runAlg("SHARE-REFS")
		if err != nil {
			return nil, err
		}
		kl, err := runAlg("KL-SHARE")
		if err != nil {
			return nil, err
		}
		lb, err := runAlg("LOAD-BAL")
		if err != nil {
			return nil, err
		}

		base := float64(random.ExecTime)
		rows = append(rows, UniformityRow{
			Uniformity:          u,
			ShareRefs:           float64(shareRefs.ExecTime) / base,
			KLShare:             float64(kl.ExecTime) / base,
			LoadBal:             float64(lb.ExecTime) / base,
			ShareRefsInvPerKilo: invPerKilo(shareRefs),
			RandomInvPerKilo:    invPerKilo(random),
		})
	}
	return rows, nil
}

func invPerKilo(r *sim.Result) float64 {
	tot := r.Totals()
	return float64(tot.Misses[sim.InvalidationMiss]) / float64(tot.Refs) * 1000
}

// UniformityReport renders the uniformity sweep.
func UniformityReport(rows []UniformityRow) *report.Table {
	t := &report.Table{
		Title: "Ablation: sharing uniformity (synthetic workload, 8 processors; exec times normalized to RANDOM)",
		Note:  "(uniformity 1.0 = the paper's regime: all pairs share equally; 0.0 = pairwise neighbour sharing)",
		Columns: []string{"Uniformity", "SHARE-REFS", "KL-SHARE", "LOAD-BAL",
			"SHARE-REFS inv/1k", "RANDOM inv/1k"},
	}
	for _, r := range rows {
		t.AddRow(report.F(r.Uniformity, 2), report.F(r.ShareRefs, 3), report.F(r.KLShare, 3),
			report.F(r.LoadBal, 3), report.F(r.ShareRefsInvPerKilo, 2), report.F(r.RandomInvPerKilo, 2))
	}
	return t
}

// ---- write runs ----

// WriteRunRow is one application's §4.2 write-run measurement.
type WriteRunRow struct {
	App   string
	Stats sim.WriteRunStats
}

// WriteRunStudy measures write runs (one thread per processor, as in the
// paper's dynamic measurements) for the given applications.
func (s *Suite) WriteRunStudy(apps []string) ([]WriteRunRow, error) {
	var rows []WriteRunRow
	for _, app := range apps {
		tr, err := s.Trace(app)
		if err != nil {
			return nil, err
		}
		n := tr.NumThreads()
		cfg, err := s.Config(app, n, false)
		if err != nil {
			return nil, err
		}
		cfg.TrackWriteRuns = true
		res, err := s.simRun(tr, placement.OnePerProcessor(n), cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WriteRunRow{App: app, Stats: *res.WriteRuns})
	}
	return rows, nil
}

// WriteRunReport renders the write-run study.
func WriteRunReport(rows []WriteRunRow) *report.Table {
	t := &report.Table{
		Title: "Write-run study (§4.2): single-thread write runs over shared blocks",
		Note:  "(the paper reports 73% of FFT's shared elements migratory — long write runs)",
		Columns: []string{"Application", "Written blocks", "Single-writer", "Migratory",
			"Ping-pong", "Migratory %", "Mean run len"},
	}
	for _, r := range rows {
		t.AddRow(r.App, fmt.Sprint(r.Stats.WrittenBlocks), fmt.Sprint(r.Stats.SingleWriterBlocks),
			fmt.Sprint(r.Stats.MigratoryBlocks), fmt.Sprint(r.Stats.PingPongBlocks),
			report.F(r.Stats.MigratoryPct(), 1), report.F(r.Stats.MeanRunLength, 1))
	}
	return t
}
