// Package loadgen is the shared core of every concurrent-client load on
// the service: the cell mix, the direct library ground truth every served
// result is compared against, and a barrier that releases clients
// together.
// perfbench drives its request workloads with it; the serve and cluster
// tests use it to hold the service layer to one rule — it adds
// transport, never arithmetic.
package loadgen

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cell is one named simulation cell.
type Cell struct {
	App   string
	Alg   string
	Procs int
}

// Mix builds the apps x algorithms x procs cross product in deterministic
// order (the same order a sweep's results come back in).
func Mix(apps, algs []string, procs []int) []Cell {
	var cells []Cell
	for _, app := range apps {
		for _, alg := range algs {
			for _, p := range procs {
				cells = append(cells, Cell{App: app, Alg: alg, Procs: p})
			}
		}
	}
	return cells
}

// ClusterDims returns the cluster tests' dimensions: many applications
// but only the two cheap placement algorithms (LOAD-BAL and RANDOM — no
// sharing-matrix candidate ranking), so a multi-worker sweep spends its
// time in the coordinator's routing, leasing and stealing rather than in
// placement search.
func ClusterDims() (apps, algs []string, procs []int) {
	return []string{"MP3D", "Gauss", "Water", "FFT", "Cholesky", "Barnes-Hut"},
		[]string{"LOAD-BAL", "RANDOM"},
		[]int{2, 4}
}

// ClusterMix is the ClusterDims cross product (24 cells).
func ClusterMix() []Cell {
	apps, algs, procs := ClusterDims()
	return Mix(apps, algs, procs)
}

// GroundTruth computes every cell directly through the library, sharing
// one suite, so each served response has an exact expected value.
func GroundTruth(scale float64, seed int64, cells []Cell) (map[Cell]*sim.Result, error) {
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: scale, Seed: seed}
	suite := core.NewSuite(opts)
	want := make(map[Cell]*sim.Result, len(cells))
	for _, c := range cells {
		res, err := suite.RunOne(c.App, c.Alg, c.Procs, false)
		if err != nil {
			return nil, fmt.Errorf("ground truth %s/%s/%d: %w", c.App, c.Alg, c.Procs, err)
		}
		want[c] = res
	}
	return want, nil
}

// Concurrent runs fn(0..n-1) on n goroutines released by a common
// barrier — so the clients are genuinely concurrent, not staggered by
// goroutine startup — and returns when all have finished.
func Concurrent(n int, fn func(client int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fn(i)
		}(i)
	}
	close(start)
	wg.Wait()
}
