package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/advise"
	"repro/internal/analysis"
	"repro/internal/placement"
	"repro/internal/sim"
)

// TestAdvisePhasedCrossover is the crossover gate as a test: on the
// phase-changing workload the online policies must beat the best static
// placement in at least one swept (interval, cost) cell with the
// migration penalty charged and every winning cell must have actually
// migrated.
func TestAdvisePhasedCrossover(t *testing.T) {
	rep, err := phasedCrossover(1994)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OnlineWins {
		t.Fatalf("no online cell beats best static %s = %d; best online %s = %d",
			rep.BestStatic.Algorithm, rep.BestStatic.ExecTime,
			rep.BestOnline.Algorithm, rep.BestOnline.ExecTime)
	}
	if len(rep.Static) == 0 || len(rep.Grid) == 0 || len(rep.Crossover) == 0 {
		t.Fatalf("incomplete report: %d static, %d grid, %d crossover rows",
			len(rep.Static), len(rep.Grid), len(rep.Crossover))
	}
	for _, cell := range rep.Grid {
		if cell.BeatsStatic && cell.Migrations == 0 {
			t.Fatalf("cell %s claims a win without migrating", cell.Algorithm)
		}
		if cell.PenaltyCycles != cell.Penalty*uint64(cell.Migrations) {
			t.Fatalf("cell %s: penalty cycles %d != cost %d x %d migrations",
				cell.Algorithm, cell.PenaltyCycles, cell.Penalty, cell.Migrations)
		}
	}
	// The crossover must be a real threshold: for every (policy,
	// interval) row, wins happen at costs up to MaxWinCost and the
	// top-of-grid cost must lose (online is not free lunch at any price).
	for _, co := range rep.Crossover {
		for _, cell := range rep.Grid {
			if cell.Policy == co.Policy && cell.Interval == co.Interval &&
				cell.Penalty > co.MaxWinCost && cell.BeatsStatic {
				t.Fatalf("crossover row %s@i=%d says max winning cost %d but cost %d wins",
					co.Policy, co.Interval, co.MaxWinCost, cell.Penalty)
			}
		}
	}
}

// TestAdvisePhasedEnginesAgree checks every online cell of the phased
// grid cycle for cycle against the reference engine: the fast-engine run
// that -advise reports must deeply equal the oracle's, migrations and
// all.
func TestAdvisePhasedEnginesAgree(t *testing.T) {
	const seed = 1994
	tr := phasedTrace()
	cfg := sim.DefaultConfig(adviseProcs)
	seedAlg, err := placement.ByName(advise.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	seedPl, err := seedAlg.Place(analysis.Analyze(tr).Sharing(), adviseProcs, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range phasedGrid() {
		opts, err := spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		fast, err := sim.RunOnline(tr, seedPl, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sim.RunOnlineObserved(tr, seedPl, cfg, sim.ReferenceEngine, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: engines diverge: fast exec %d vs reference %d", spec.String(), fast.ExecTime, ref.ExecTime)
		}
	}
}

// TestAdviseKernelGridNames locks the swept ONLINE names to the
// canonical grammar so BENCH_advise.json cells stay addressable as
// /v1/simulate algorithms.
func TestAdviseKernelGridNames(t *testing.T) {
	names := adviseKernelOnline()
	if len(names) != 4 {
		t.Fatalf("kernel online grid: %v", names)
	}
	for _, name := range names {
		spec, ok, err := advise.ParseOnlineAlgorithm(name)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", name, ok, err)
		}
		if spec.String() != name {
			t.Fatalf("%s is not canonical (canonical %s)", name, spec.String())
		}
	}
}

// TestAdviseBenchGate runs the full generator at a reduced kernel scale
// into a temp file and checks the written artifact parses and carries a
// passing gate — the advisecheck smoke.
func TestAdviseBenchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full advise bench in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_advise.json")
	if err := benchAdvise(0.1, 1994, path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchAdviseReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Phased == nil || !rep.Phased.OnlineWins {
		t.Fatal("artifact gate did not pass")
	}
	if len(rep.Kernels) != len(adviseKernelApps) {
		t.Fatalf("kernel reports: %d", len(rep.Kernels))
	}
	for _, kr := range rep.Kernels {
		if kr.BestStatic.Algorithm == "" || kr.BestOnline.Algorithm == "" {
			t.Fatalf("kernel %s incomplete", kr.App)
		}
	}
}
