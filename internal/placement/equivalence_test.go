package placement_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/workload"
)

// The production combining loop ranks each cluster pair once in a heap
// and checks thread balance against a kept packing with a bounded search;
// the oracle re-ranks every pair after every merge and runs an unbounded
// exact lookahead. These tests require the two to agree placement for
// placement, error for error, and the search budget never to be reached.

var equivProcs = []int{2, 4, 8, 16}

// samePlacement runs one algorithm and its oracle twin and reports any
// difference in placement or error.
func samePlacement(t *testing.T, name string, got, want placement.Algorithm, d *analysis.SharingData, p int, seed int64) {
	t.Helper()
	gpl, gerr := got.Place(d, p, seed)
	wpl, werr := want.Place(d, p, seed)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, oracle %v", name, gerr, werr)
	}
	if !reflect.DeepEqual(gpl, wpl) {
		t.Fatalf("%s: placement %v, oracle %v", name, gpl, wpl)
	}
}

// noBudgetHits fails the test if a placement since hits spent the search
// budget: every input here must be decided exactly.
func noBudgetHits(t *testing.T, hits int64) {
	t.Helper()
	if n := placement.BudgetHits() - hits; n != 0 {
		t.Errorf("%d placements spent the packing search budget", n)
	}
}

// TestClusterMatchesOracle covers the catalog: 14 apps x all 14
// algorithms x {2, 4, 8, 16} processors, at scale 0.25 under two seeds
// and at scale 1.
func TestClusterMatchesOracle(t *testing.T) {
	hits := placement.BudgetHits()
	algs, oracle := placement.All(), placement.OracleAll()
	for _, params := range []workload.Params{
		{Scale: 0.25, Seed: 1994}, {Scale: 0.25, Seed: 7}, {Scale: 1, Seed: 1994},
	} {
		s := core.NewSuite(core.Options{Params: params})
		for _, app := range workload.Names() {
			d, err := s.Sharing(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range equivProcs {
				for i := range algs {
					name := fmt.Sprintf("%s scale=%v seed=%d p=%d %s", app, params.Scale, params.Seed, p, algs[i].Name)
					samePlacement(t, name, algs[i], oracle[i], d, p, params.Seed)
				}
			}
		}
	}
	noBudgetHits(t, hits)
}

// TestCoherenceMatchesOracle clusters each app's measured coherence-
// traffic matrix (the §4.2 COHERENCE algorithm) both ways.
func TestCoherenceMatchesOracle(t *testing.T) {
	hits := placement.BudgetHits()
	s := core.NewSuite(core.Options{Params: workload.Params{Scale: 0.25, Seed: 1994}})
	for _, app := range workload.Names() {
		d, err := s.Sharing(app)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := s.CoherenceMeasurement(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range equivProcs {
			samePlacement(t, fmt.Sprintf("%s p=%d COHERENCE", app, p),
				placement.CoherenceTraffic(m), placement.OracleCoherence(m), d, p, 0)
		}
	}
	noBudgetHits(t, hits)
}

// randomTieData draws sharing data whose entries all lie in 0..3, so
// nearly every ranking decision is settled by a tie-break.
func randomTieData(r *rand.Rand, n int) (*analysis.SharingData, [][]uint64) {
	sym := func() [][]uint64 {
		m := make([][]uint64, n)
		for i := range m {
			m[i] = make([]uint64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := uint64(r.Intn(4))
				m[i][j], m[j][i] = v, v
			}
		}
		return m
	}
	d := &analysis.SharingData{
		App:              "ties",
		SharedRefs:       sym(),
		SharedAddrs:      sym(),
		WriteSharedRefs:  sym(),
		InvalidatingRefs: sym(),
		PrivateAddrs:     make([]int, n),
		Lengths:          make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		d.PrivateAddrs[i] = r.Intn(4)
		d.Lengths[i] = uint64(1 + r.Intn(4))
	}
	return d, sym()
}

// TestClusterMatchesOracleRandomTies covers random tie-heavy sharing data:
// 2-40 threads, up to 8 processors, every metric under both balance modes.
func TestClusterMatchesOracleRandomTies(t *testing.T) {
	hits := placement.BudgetHits()
	r := rand.New(rand.NewSource(1994))
	for c := 0; c < 300; c++ {
		n := 2 + r.Intn(39)
		p := 1 + r.Intn(min(n, 8))
		d, traffic := randomTieData(r, n)
		metrics := append(placement.ClusterMetrics(), &placement.MatrixMetric{MetricName: "M", M: traffic})
		for _, m := range metrics {
			for _, bal := range []placement.Balance{placement.ThreadBalance, placement.LoadBalance} {
				gpl, gerr := placement.Cluster(d, p, m, bal, placement.DefaultLoadSlack)
				wpl, werr := placement.OracleCluster(d, p, m, bal, placement.DefaultLoadSlack)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gpl, wpl) {
					t.Fatalf("case %d (n=%d p=%d %s bal=%d): got %v, %v; oracle %v, %v",
						c, n, p, m.Name(), bal, gpl, gerr, wpl, werr)
				}
			}
		}
	}
	noBudgetHits(t, hits)
}
