// Package placement implements the thread placement algorithms of §2 of
// the paper: the greedy agglomerative cluster-combining framework, the six
// sharing-based metrics (SHARE-REFS, SHARE-ADDR, MIN-PRIV, MIN-INVS,
// MAX-WRITES, MIN-SHARE), their load-balancing "+LB" variants, LOAD-BAL,
// RANDOM, and the dynamic coherence-traffic algorithm of §4.2.
//
// Every algorithm maps t threads onto p processors. Threads co-located on
// a processor form a "cluster". Thread-balanced algorithms produce clusters
// of ⌊t/p⌋ or ⌈t/p⌉ threads; load-balanced algorithms equalize the total
// dynamic instruction count instead.
package placement

import (
	"fmt"
	"sort"
)

// Placement maps threads to processors.
type Placement struct {
	// Algorithm names the algorithm that produced the placement.
	Algorithm string
	// Clusters[p] lists the thread IDs co-located on processor p, in
	// ascending order.
	Clusters [][]int
}

// OnePerProcessor places each of n threads on its own processor: the
// paper's dynamic-measurement configuration (§4.2), under which traffic
// between processor pairs is traffic between thread pairs.
func OnePerProcessor(n int) *Placement {
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	return &Placement{Algorithm: "ONE-THREAD-PER-PROC", Clusters: clusters}
}

// NumThreads returns the total number of placed threads.
func (pl *Placement) NumThreads() int {
	n := 0
	for _, c := range pl.Clusters {
		n += len(c)
	}
	return n
}

// Assignment returns the thread -> processor map.
func (pl *Placement) Assignment() []int {
	a := make([]int, pl.NumThreads())
	for i := range a {
		a[i] = -1
	}
	for p, c := range pl.Clusters {
		for _, t := range c {
			if t >= 0 && t < len(a) {
				a[t] = p
			}
		}
	}
	return a
}

// Validate checks that the placement is a partition of exactly `threads`
// thread IDs over exactly `procs` processors with no empty processor.
func (pl *Placement) Validate(threads, procs int) error {
	if len(pl.Clusters) != procs {
		return fmt.Errorf("placement %s: %d clusters, want %d", pl.Algorithm, len(pl.Clusters), procs)
	}
	seen := make([]bool, threads)
	total := 0
	for p, c := range pl.Clusters {
		if len(c) == 0 {
			return fmt.Errorf("placement %s: processor %d empty", pl.Algorithm, p)
		}
		for _, t := range c {
			if t < 0 || t >= threads {
				return fmt.Errorf("placement %s: thread %d out of range", pl.Algorithm, t)
			}
			if seen[t] {
				return fmt.Errorf("placement %s: thread %d placed twice", pl.Algorithm, t)
			}
			seen[t] = true
			total++
		}
	}
	if total != threads {
		return fmt.Errorf("placement %s: placed %d of %d threads", pl.Algorithm, total, threads)
	}
	return nil
}

// ThreadBalanced reports whether every cluster has ⌊t/p⌋ or ⌈t/p⌉ threads,
// with exactly t mod p clusters of the larger size.
func (pl *Placement) ThreadBalanced() bool {
	t, p := pl.NumThreads(), len(pl.Clusters)
	if p == 0 {
		return false
	}
	lo, r := t/p, t%p
	big := 0
	for _, c := range pl.Clusters {
		switch len(c) {
		case lo:
		case lo + 1:
			big++
		default:
			return false
		}
	}
	if r == 0 {
		return big == 0
	}
	return big == r
}

// Loads returns each processor's total dynamic instruction count under the
// given per-thread lengths.
func (pl *Placement) Loads(lengths []uint64) []uint64 {
	loads := make([]uint64, len(pl.Clusters))
	for p, c := range pl.Clusters {
		for _, t := range c {
			loads[p] += lengths[t]
		}
	}
	return loads
}

// LoadImbalance returns (max load − ideal load) / ideal load, the relative
// overshoot of the most loaded processor. Zero means perfectly balanced.
func (pl *Placement) LoadImbalance(lengths []uint64) float64 {
	loads := pl.Loads(lengths)
	var total, max uint64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	ideal := float64(total) / float64(len(loads))
	return (float64(max) - ideal) / ideal
}

// normalize sorts thread IDs within clusters and clusters by first thread,
// giving placements a canonical form for display and tests.
func (pl *Placement) normalize() {
	for _, c := range pl.Clusters {
		sort.Ints(c)
	}
	sort.Slice(pl.Clusters, func(i, j int) bool {
		return pl.Clusters[i][0] < pl.Clusters[j][0]
	})
}

// String renders the placement compactly, e.g. "SHARE-REFS{[0 2][1 3]}".
func (pl *Placement) String() string {
	s := pl.Algorithm + "{"
	for _, c := range pl.Clusters {
		s += fmt.Sprint(c)
	}
	return s + "}"
}
