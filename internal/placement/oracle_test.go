package placement

// The combining loop as it stood before the candidate heap and the kept
// packing: every merge re-scores and re-sorts all cluster pairs, and the
// thread-balance lookahead is an unbounded exact bin-packing search
// memoized on string keys. It is kept here, in test code only, as the
// oracle that the production loop must reproduce placement for placement
// (equivalence_test.go).

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/analysis"
)

// oracleCluster is the old Cluster: same checks, same normalization.
func oracleCluster(d *analysis.SharingData, p int, m Metric, bal Balance, slack float64) (*Placement, error) {
	t := d.NumThreads()
	if err := checkCounts(t, p); err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	s := newScorer(d, m, t)
	clusters := make([]oclus, t)
	for i := range clusters {
		clusters[i] = oclus{id: i, members: []int{i}}
	}
	var out [][]int
	var err error
	switch bal {
	case ThreadBalance:
		out, err = oracleThreadBalanced(s, clusters, p)
	case LoadBalance:
		out = oracleLoadBalanced(s, clusters, p, slack)
	default:
		err = fmt.Errorf("unknown balance mode %d", bal)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	pl := &Placement{Algorithm: m.Name(), Clusters: out}
	pl.normalize()
	return pl, nil
}

// oclus is a cluster with an immutable identity: a given ID always denotes
// the same member set, so pair scores can be cached across clustering
// iterations and across backtracking branches.
type oclus struct {
	id      int
	members []int
}

// scorer evaluates and caches metric scores between clusters.
type scorer struct {
	d     *analysis.SharingData
	m     Metric
	next  int
	cache map[uint64][2]float64
}

func newScorer(d *analysis.SharingData, m Metric, initial int) *scorer {
	return &scorer{d: d, m: m, next: initial, cache: make(map[uint64][2]float64)}
}

func (s *scorer) score(a, b oclus) (float64, float64) {
	lo, hi := a.id, b.id
	if lo > hi {
		lo, hi = hi, lo
	}
	k := uint64(lo)<<32 | uint64(hi)
	if v, ok := s.cache[k]; ok {
		return v[0], v[1]
	}
	p, sec := s.m.Score(s.d, a.members, b.members)
	s.cache[k] = [2]float64{p, sec}
	return p, sec
}

// merge returns a new cluster list with clusters i and j combined under a
// fresh identity.
func (s *scorer) merge(clusters []oclus, i, j int) []oclus {
	out := make([]oclus, 0, len(clusters)-1)
	comb := make([]int, 0, len(clusters[i].members)+len(clusters[j].members))
	comb = append(comb, clusters[i].members...)
	comb = append(comb, clusters[j].members...)
	for k, c := range clusters {
		if k == i || k == j {
			continue
		}
		out = append(out, c)
	}
	out = append(out, oclus{id: s.next, members: comb})
	s.next++
	return out
}

// candidate is a scored cluster pair.
type candidate struct {
	i, j int
	p, s float64
}

// rankCandidates scores every cluster pair and sorts best-first.
// Ties break deterministically on the clusters' immutable IDs.
func rankCandidates(s *scorer, clusters []oclus) []candidate {
	cands := make([]candidate, 0, len(clusters)*(len(clusters)-1)/2)
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			p, sec := s.score(clusters[i], clusters[j])
			cands = append(cands, candidate{i: i, j: j, p: p, s: sec})
		}
	}
	// The order is total (IDs are unique), so any correct sort yields the
	// same ranking; slices.SortFunc only keeps the oracle affordable.
	slices.SortFunc(cands, func(ca, cb candidate) int {
		switch {
		case ca.p != cb.p:
			return order(ca.p > cb.p)
		case ca.s != cb.s:
			return order(ca.s > cb.s)
		}
		ia, ja := clusters[ca.i].id, clusters[ca.j].id
		ib, jb := clusters[cb.i].id, clusters[cb.j].id
		if ia != ib {
			return ia - ib
		}
		return ja - jb
	})
	return cands
}

// order maps "a sorts first" to a three-way comparison result.
func order(aFirst bool) int {
	if aFirst {
		return -1
	}
	return 1
}

func oracleMembers(clusters []oclus) [][]int {
	out := make([][]int, len(clusters))
	for i, c := range clusters {
		out[i] = c.members
	}
	return out
}

// feasChecker decides whether a multiset of cluster sizes can still be
// merged into exactly p clusters of size ⌊t/p⌋ or ⌈t/p⌉ (with exactly
// t mod p of the larger size). This is exact-fill bin packing, memoized by
// the sorted size multiset. Using it as a lookahead subsumes the paper's
// backtracking (§2.1 step 4): the greedy loop only takes merges from which
// the balanced partition remains reachable, so it never gets stuck.
type feasChecker struct {
	floor, ceil, r, p int
	memo              map[string]bool
	packMemo          map[string]bool
}

func newFeasChecker(t, p int) *feasChecker {
	return &feasChecker{
		floor:    t / p,
		ceil:     (t + p - 1) / p,
		r:        t % p,
		p:        p,
		memo:     make(map[string]bool),
		packMemo: make(map[string]bool),
	}
}

// check reports whether the size multiset can complete. sizes is consumed
// (sorted in place).
func (f *feasChecker) check(sizes []int) bool {
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) < f.p || sizes[0] > f.ceil {
		return false
	}
	b := make([]byte, 0, 3*len(sizes))
	for _, s := range sizes {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	key := string(b)
	if v, ok := f.memo[key]; ok {
		return v
	}
	// Bins that must be filled exactly: r of capacity ceil, p-r of floor.
	bins := make([]int, f.p)
	for i := range bins {
		if i < f.r {
			bins[i] = f.ceil
		} else {
			bins[i] = f.floor
		}
	}
	res := f.pack(sizes, bins)
	f.memo[key] = res
	return res
}

// pack places sizes (sorted descending) into bins so every bin is filled
// exactly. Total conservation (sum sizes == sum bins) is an invariant.
// Sub-problems are memoized on (remaining sizes, sorted bin remainders):
// without the memo, uniform size multisets (e.g. dozens of equal clusters)
// explode combinatorially.
func (f *feasChecker) pack(sizes []int, bins []int) bool {
	if len(sizes) == 0 {
		return true
	}
	if sizes[0] == 1 {
		// Only unit clusters remain: they can fill any exact remainders
		// because the totals match.
		return true
	}
	key := packKey(sizes, bins)
	if v, ok := f.packMemo[key]; ok {
		return v
	}
	s0 := sizes[0]
	res := false
	tried := make(map[int]bool, len(bins))
	for b := range bins {
		if bins[b] < s0 || tried[bins[b]] {
			continue // too small, or symmetric to a bin already tried
		}
		tried[bins[b]] = true
		bins[b] -= s0
		ok := f.pack(sizes[1:], bins)
		bins[b] += s0
		if ok {
			res = true
			break
		}
	}
	f.packMemo[key] = res
	return res
}

// packKey canonically encodes a pack sub-problem. Bin remainders are
// order-insensitive, so they are sorted into the key.
func packKey(sizes []int, bins []int) string {
	rem := make([]int, len(bins))
	copy(rem, bins)
	sort.Ints(rem)
	b := make([]byte, 0, 3*(len(sizes)+len(rem))+1)
	for _, s := range sizes {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, r := range rem {
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ',')
	}
	return string(b)
}

// oracleThreadBalanced runs the greedy metric-guided loop with the exact
// feasibility lookahead: the best-scoring pair whose merge keeps the
// thread-balanced p-way partition reachable is combined. A feasible state
// always admits at least one feasible merge (merge any two clusters that
// share a bin in a witness packing), so the loop terminates with a
// balanced partition whenever one exists.
func oracleThreadBalanced(s *scorer, clusters []oclus, p int) ([][]int, error) {
	t := 0
	for _, c := range clusters {
		t += len(c.members)
	}
	feas := newFeasChecker(t, p)

	sizesAfterMerge := func(cs []oclus, i, j int) []int {
		sizes := make([]int, 0, len(cs)-1)
		for k, c := range cs {
			if k == i || k == j {
				continue
			}
			sizes = append(sizes, len(c.members))
		}
		return append(sizes, len(cs[i].members)+len(cs[j].members))
	}

	for len(clusters) > p {
		merged := false
		for _, cand := range rankCandidates(s, clusters) {
			if len(clusters[cand.i].members)+len(clusters[cand.j].members) > feas.ceil {
				continue
			}
			if !feas.check(sizesAfterMerge(clusters, cand.i, cand.j)) {
				continue
			}
			clusters = s.merge(clusters, cand.i, cand.j)
			merged = true
			break
		}
		if !merged {
			return nil, fmt.Errorf("no thread-balanced %d-way clustering of %d threads exists", p, t)
		}
	}
	return oracleMembers(clusters), nil
}

// oracleLoadBalanced applies the metric first and the load criterion
// second (paper §2 item 8): the best-scoring pair whose combined load stays
// within (1+slack) of the ideal per-processor load is combined. When no
// pair satisfies the load criterion, the pair yielding the smallest
// combined load is merged so the algorithm always terminates with exactly
// p clusters — this mirrors the paper's observation that "+LB" algorithms
// sometimes cannot generate a well balanced load because they satisfy the
// sharing criteria first.
func oracleLoadBalanced(s *scorer, clusters []oclus, p int, slack float64) [][]int {
	var total uint64
	for _, l := range s.d.Lengths {
		total += l
	}
	ideal := float64(total) / float64(p)
	limit := ideal * (1 + slack)

	load := func(c oclus) float64 {
		var l uint64
		for _, t := range c.members {
			l += s.d.Lengths[t]
		}
		return float64(l)
	}

	for len(clusters) > p {
		mergedOne := false
		for _, cand := range rankCandidates(s, clusters) {
			if load(clusters[cand.i])+load(clusters[cand.j]) <= limit {
				clusters = s.merge(clusters, cand.i, cand.j)
				mergedOne = true
				break
			}
		}
		if mergedOne {
			continue
		}
		// Fallback: minimize the resulting cluster's load.
		bi, bj, best := -1, -1, 0.0
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				l := load(clusters[i]) + load(clusters[j])
				if bi == -1 || l < best {
					bi, bj, best = i, j, l
				}
			}
		}
		clusters = s.merge(clusters, bi, bj)
	}
	return oracleMembers(clusters)
}

// oracleAll is All with every clustering algorithm run by oracleCluster.
func oracleAll() []Algorithm {
	type spec struct {
		m   Metric
		bal Balance
	}
	byName := make(map[string]spec)
	for _, m := range sharingMetrics() {
		byName[m.Name()] = spec{m, ThreadBalance}
		byName[m.Name()+lbSuffix] = spec{m, LoadBalance}
	}
	algs := All()
	for i, a := range algs {
		sp, ok := byName[a.Name]
		if !ok {
			continue // LOAD-BAL and RANDOM do not cluster
		}
		name := a.Name
		algs[i].Place = func(d *analysis.SharingData, p int, _ int64) (*Placement, error) {
			pl, err := oracleCluster(d, p, sp.m, sp.bal, DefaultLoadSlack)
			if err != nil {
				return nil, err
			}
			pl.Algorithm = name
			return pl, nil
		}
	}
	return algs
}

// oracleCoherence is CoherenceTraffic run by oracleCluster.
func oracleCoherence(traffic [][]uint64) Algorithm {
	m := &MatrixMetric{MetricName: "COHERENCE", M: traffic}
	return Algorithm{
		Name:         m.MetricName,
		SharingBased: true,
		Place: func(d *analysis.SharingData, p int, _ int64) (*Placement, error) {
			return oracleCluster(d, p, m, ThreadBalance, DefaultLoadSlack)
		},
	}
}
