package placement

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
)

// adversarialBlocks returns 320 threads in 24 blocks whose sizes, all
// between a quarter and a half of the 40-thread bin, admit no packing
// into 8 bins: a three-partition instance with no solution. Threads of
// one block share heavily and nothing else is shared, so the greedy loop
// grows the blocks and each late balance check is an exhaustive search.
// Block members are interleaved across thread IDs so the initial packing
// (dealt in ID order) helps nothing.
func adversarialBlocks() (*MatrixMetric, *analysis.SharingData) {
	sizes := []int{12, 11, 12, 14, 19, 11, 13, 12, 13, 18, 12, 12, 15, 15, 12, 13, 12, 12, 16, 11, 16, 11, 15, 13}
	n := 0
	for _, s := range sizes {
		n += s
	}
	block := make([]int, n)
	pos := 0
	for b, s := range sizes {
		for k := 0; k < s; k++ {
			block[pos*97%n] = b
			pos++
		}
	}
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
		for j := range m[i] {
			if i != j && block[i] == block[j] {
				m[i][j] = 1000
			}
		}
	}
	return &MatrixMetric{MetricName: "ADVERSARIAL", M: m}, dataFromMatrix(m)
}

// TestSearchBudgetFreezesWitness spends the packing search budget and
// checks the fallback: the loop finishes on same-bin merges of the frozen
// witness with a valid thread-balanced placement, the same on every run.
func TestSearchBudgetFreezesWitness(t *testing.T) {
	m, d := adversarialBlocks()
	var pls []*Placement
	for run := 0; run < 2; run++ {
		hits := budgetHits.Load()
		pl, err := Cluster(d, 8, m, ThreadBalance, 0)
		if err != nil {
			t.Fatal(err)
		}
		if budgetHits.Load() == hits {
			t.Fatalf("run %d did not spend the search budget", run)
		}
		if err := pl.Validate(d.NumThreads(), 8); err != nil {
			t.Fatal(err)
		}
		if !pl.ThreadBalanced() {
			t.Fatalf("run %d: not thread balanced: %v", run, pl.Clusters)
		}
		pls = append(pls, pl)
	}
	if !reflect.DeepEqual(pls[0], pls[1]) {
		t.Errorf("runs differ:\n%v\n%v", pls[0], pls[1])
	}
}
