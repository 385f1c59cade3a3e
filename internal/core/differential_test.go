package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDifferentialEngines is the harness that proves the fast engine
// cycle-exact on the real workload: every application, three
// representative placement algorithms (the paper's baselines RANDOM and
// LOAD-BAL plus the best sharing-based algorithm SHARE-REFS), at 2 and 8
// processors. The reference and fast engines must produce deeply equal
// Results — execution times, per-processor stats, miss components,
// invalidations, write runs, everything.
func TestDifferentialEngines(t *testing.T) {
	s := testSuite()
	algs := []string{"RANDOM", "LOAD-BAL", "SHARE-REFS"}
	procCounts := []int{2, 8}
	for _, a := range workload.Apps() {
		app := a.Name
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			tr, err := s.Trace(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range algs {
				for _, procs := range procCounts {
					pl, err := s.Place(app, alg, procs)
					if err != nil {
						t.Fatal(err)
					}
					cfg, err := s.Config(app, procs, false)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := sim.RunObserved(tr, pl, cfg, sim.ReferenceEngine, nil)
					if err != nil {
						t.Fatalf("%s/%dp: reference engine: %v", alg, procs, err)
					}
					fast, err := sim.RunObserved(tr, pl, cfg, sim.FastEngine, nil)
					if err != nil {
						t.Fatalf("%s/%dp: fast engine: %v", alg, procs, err)
					}
					if !reflect.DeepEqual(ref, fast) {
						t.Errorf("%s/%dp: engines diverge:\n  reference: exec %d, totals %+v\n  fast:      exec %d, totals %+v",
							alg, procs, ref.ExecTime, ref.Totals(), fast.ExecTime, fast.Totals())
					}
				}
			}
		})
	}
}
