package placement

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/analysis"
)

// Balance selects the cluster-combining constraint.
type Balance int

const (
	// ThreadBalance distributes threads equally: ⌊t/p⌋ or ⌈t/p⌉ per
	// processor (paper §2, "thread-balancing").
	ThreadBalance Balance = iota
	// LoadBalance distributes dynamic instructions equally, within a
	// slack percentage of the ideal per-processor load (the "+LB"
	// criterion, paper §2 item 8).
	LoadBalance
)

// DefaultLoadSlack is the load-balancing tolerance: a combination is
// admissible if the combined cluster load does not exceed the ideal
// per-processor load by more than this fraction. The paper uses
// "typically 10%".
const DefaultLoadSlack = 0.10

// Metric scores the desirability of combining two clusters. Higher primary
// scores combine first; secondary breaks primary ties (used by MIN-PRIV).
type Metric interface {
	// Name is the algorithm name the metric implements.
	Name() string
	// Score rates combining clusters ca and cb under the sharing data.
	Score(d *analysis.SharingData, ca, cb []int) (primary, secondary float64)
}

// avgPairwise computes the paper's sharing-metric normalization: the sum of
// m[ta][tb] over all cross-cluster thread pairs, divided by |ca|·|cb|.
func avgPairwise(m [][]uint64, ca, cb []int) float64 {
	var sum uint64
	for _, a := range ca {
		row := m[a]
		for _, b := range cb {
			sum += row[b]
		}
	}
	return float64(sum) / float64(len(ca)*len(cb))
}

// clus is a cluster with an immutable identity: a given ID always denotes
// the same member set, so each pair of clusters is scored exactly once,
// when the younger of the two is created.
type clus struct {
	members []int
	load    uint64 // the members' total dynamic length (+LB)
}

// pair is a scored candidate combination of the clusters with IDs lo < hi.
type pair struct {
	p, s   float64
	lo, hi int32
}

// before is the ranking's total order: primary score descending, then
// secondary descending, then the lower cluster ID ascending, then the
// higher one. IDs are unique, so no two pairs tie.
func (a pair) before(b pair) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	if a.s != b.s {
		return a.s > b.s
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.hi < b.hi
}

// ranker holds the clusters of one combining run and ranks every pair of
// live clusters in one binary heap. A pair naming a merged cluster stays
// in the heap until it reaches the top, where it is dropped.
type ranker struct {
	d        *analysis.SharingData
	m        Metric
	clusters []clus // by ID; a merged cluster keeps its slot
	alive    []bool // by ID
	live     []int  // IDs of the live clusters, ascending
	heap     []pair
}

// newRanker starts one singleton cluster per thread, with IDs equal to
// thread IDs, and ranks all their pairs.
func newRanker(d *analysis.SharingData, m Metric, t int) *ranker {
	r := &ranker{
		d:        d,
		m:        m,
		clusters: make([]clus, t, 2*t),
		alive:    make([]bool, t, 2*t),
		live:     make([]int, t),
		heap:     make([]pair, 0, t*(t-1)/2),
	}
	ids := make([]int, t)
	for i := range r.clusters {
		ids[i] = i
		r.clusters[i] = clus{members: ids[i : i+1 : i+1], load: d.Lengths[i]}
		r.alive[i] = true
		r.live[i] = i
	}
	for hi := 1; hi < t; hi++ {
		for lo := 0; lo < hi; lo++ {
			r.heap = append(r.heap, r.score(lo, hi))
		}
	}
	r.heapify()
	return r
}

func (r *ranker) score(lo, hi int) pair {
	p, s := r.m.Score(r.d, r.clusters[lo].members, r.clusters[hi].members)
	return pair{p: p, s: s, lo: int32(lo), hi: int32(hi)}
}

// pop removes and returns the best pair of two live clusters.
func (r *ranker) pop() (pair, bool) {
	for len(r.heap) > 0 {
		top := r.heap[0]
		last := len(r.heap) - 1
		r.heap[0] = r.heap[last]
		r.heap = r.heap[:last]
		r.down(0)
		if r.alive[top.lo] && r.alive[top.hi] {
			return top, true
		}
	}
	return pair{}, false
}

func (r *ranker) heapify() {
	for k := len(r.heap)/2 - 1; k >= 0; k-- {
		r.down(k)
	}
}

func (r *ranker) down(k int) {
	h := r.heap
	for {
		best := k
		if c := 2*k + 1; c < len(h) && h[c].before(h[best]) {
			best = c
		}
		if c := 2*k + 2; c < len(h) && h[c].before(h[best]) {
			best = c
		}
		if best == k {
			return
		}
		h[k], h[best] = h[best], h[k]
		k = best
	}
}

func (r *ranker) push(c pair) {
	r.heap = append(r.heap, c)
	h := r.heap
	for k := len(h) - 1; k > 0; {
		up := (k - 1) / 2
		if !h[k].before(h[up]) {
			return
		}
		h[k], h[up] = h[up], h[k]
		k = up
	}
}

// merge combines clusters lo < hi under a fresh ID, the largest so far,
// and ranks the new cluster's pairs with every live cluster.
func (r *ranker) merge(lo, hi int) {
	a, b := r.clusters[lo], r.clusters[hi]
	comb := make([]int, 0, len(a.members)+len(b.members))
	comb = append(comb, a.members...)
	comb = append(comb, b.members...)
	id := len(r.clusters)
	r.clusters = append(r.clusters, clus{members: comb, load: a.load + b.load})
	r.alive[lo], r.alive[hi] = false, false
	r.alive = append(r.alive, true)
	k := 0
	for _, c := range r.live {
		if c != lo && c != hi {
			r.live[k] = c
			k++
		}
	}
	r.live = append(r.live[:k], id)
	if live := len(r.live); len(r.heap) > live*(live-1) {
		r.purge()
	}
	for _, c := range r.live[:k] {
		r.push(r.score(c, id))
	}
}

// purge drops the pairs that name merged clusters and rebuilds the heap.
// It runs once dead pairs outnumber the live ones, so its cost is
// amortized over the pushes, and it cannot change which pair pops next:
// the order is total.
func (r *ranker) purge() {
	k := 0
	for _, c := range r.heap {
		if r.alive[c.lo] && r.alive[c.hi] {
			r.heap[k] = c
			k++
		}
	}
	r.heap = r.heap[:k]
	r.heapify()
}

func (r *ranker) members() [][]int {
	out := make([][]int, len(r.live))
	for i, id := range r.live {
		out[i] = r.clusters[id].members
	}
	return out
}

// Cluster runs the greedy agglomerative combining loop of §2.1: start with
// one cluster per thread and repeatedly combine the pair with the best
// metric value that the balance criterion admits, until exactly p clusters
// remain. Under ThreadBalance a merge is admitted only if the exact thread
// balance stays reachable, which subsumes the paper's backtracking (§2.1
// step 4).
func Cluster(d *analysis.SharingData, p int, m Metric, bal Balance, slack float64) (*Placement, error) {
	t := d.NumThreads()
	if err := checkCounts(t, p); err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	var out [][]int
	var err error
	switch bal {
	case ThreadBalance:
		out, err = clusterThreadBalanced(newRanker(d, m, t), t, p)
	case LoadBalance:
		out = clusterLoadBalanced(newRanker(d, m, t), p, slack)
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

func checkCounts(t, p int) error {
	if p <= 0 {
		return fmt.Errorf("need at least one processor, got %d", p)
	}
	if t < p {
		return fmt.Errorf("cannot place %d threads on %d processors without idle processors", t, p)
	}
	return nil
}

// searchBudget bounds the packing-search states one placement may expand.
// No catalog placement comes near it; past it the witness is frozen.
const searchBudget = 1 << 15

// budgetHits counts the placements that spent searchBudget and finished
// on a frozen witness. Tests read it.
var budgetHits atomic.Int64

// witness keeps a packing of the live clusters that proves the thread
// balance reachable: each cluster sits in one of the p processor bins,
// and each bin's clusters hold exactly its capacity, ⌈t/p⌉ threads in the
// first t mod p bins and ⌊t/p⌋ in the rest. Merging two clusters of one
// bin keeps the packing valid. Any other merge is admitted only if an
// exact search finds a packing of the merged sizes, which becomes the new
// witness.
type witness struct {
	caps   []int
	ceil   int
	bin    []int // by cluster ID
	budget int   // search states left
	frozen bool  // budget spent: only same-bin merges are admitted

	// Search buffers. Within one search the item list is fixed, so a
	// state is (item position, sorted bin remainders).
	items  []packItem // sizes descending; units last
	multi  int        // items[:multi] are the clusters of two or more
	gcd    []int      // gcd[i]: gcd of the sizes in items[i:multi]
	rem    []int
	sorted []int
	key    []byte
	failed map[string]bool
}

type packItem struct{ id, size, bin int }

// newWitness deals the t singleton clusters to the bins in ID order.
func newWitness(t, p int) *witness {
	w := &witness{
		caps:   make([]int, p),
		ceil:   (t + p - 1) / p,
		bin:    make([]int, 0, 2*t),
		budget: searchBudget,
		failed: make(map[string]bool),
	}
	for b := range w.caps {
		w.caps[b] = t / p
		if b < t%p {
			w.caps[b]++
		}
		for k := 0; k < w.caps[b]; k++ {
			w.bin = append(w.bin, b)
		}
	}
	return w
}

// admit reports whether merging clusters lo and hi keeps the thread
// balance reachable. Until the budget is spent the answer is exact.
func (w *witness) admit(r *ranker, lo, hi int) bool {
	if w.bin[lo] == w.bin[hi] {
		return true
	}
	if w.frozen {
		return false
	}
	sa, sb := len(r.clusters[lo].members), len(r.clusters[hi].members)
	// lo stands for the merged cluster; hi is left out.
	w.items = w.items[:0]
	for _, id := range r.live {
		switch id {
		case lo:
			w.items = append(w.items, packItem{id: id, size: sa + sb})
		case hi:
		default:
			w.items = append(w.items, packItem{id: id, size: len(r.clusters[id].members)})
		}
	}
	slices.SortFunc(w.items, func(a, b packItem) int {
		if a.size != b.size {
			return b.size - a.size
		}
		return a.id - b.id
	})
	w.multi = 0
	for w.multi < len(w.items) && w.items[w.multi].size > 1 {
		w.multi++
	}
	w.gcd = slices.Grow(w.gcd[:0], w.multi)[:w.multi]
	for i, g := w.multi-1, 0; i >= 0; i-- {
		g = gcd(g, w.items[i].size)
		w.gcd[i] = g
	}
	w.rem = append(w.rem[:0], w.caps...)
	clear(w.failed)
	if !w.pack(0) {
		if w.frozen {
			budgetHits.Add(1)
		}
		return false
	}
	for _, it := range w.items {
		w.bin[it.id] = it.bin
	}
	w.bin[hi] = w.bin[lo]
	return true
}

// pack places items[pos:] so that every bin is filled exactly; the totals
// always match, so the unit clusters fill whatever the larger ones leave.
// Three exact shortcuts keep the search small. A bin's remainder that no
// remaining multi-thread cluster can fill, and the part of it that is not
// a multiple of their sizes' gcd, is waste only units can absorb. A run
// of equal sizes at the end places in closed form. Failed states are
// memoized, without which uniform size multisets explode combinatorially.
func (w *witness) pack(pos int) bool {
	if pos == w.multi {
		w.fillUnits()
		return true
	}
	units := len(w.items) - w.multi
	smallest, g := w.items[w.multi-1].size, w.gcd[pos]
	waste := 0
	for _, rem := range w.rem {
		if rem < smallest {
			waste += rem
		} else {
			waste += rem % g
		}
	}
	if waste > units {
		return false
	}
	s := w.items[pos].size
	if s == smallest {
		// k clusters of size s fit iff the remainders hold k multiples
		// of s, which the waste bound (g == s) has just established.
		for i, b := pos, 0; i < w.multi; i++ {
			for w.rem[b] < s {
				b++
			}
			w.items[i].bin = b
			w.rem[b] -= s
		}
		w.fillUnits()
		return true
	}
	if w.failed[string(w.stateKey(pos))] {
		return false
	}
	if w.budget == 0 {
		w.frozen = true
		return false
	}
	w.budget--
	for b, rem := range w.rem {
		if rem < s || slices.Contains(w.rem[:b], rem) {
			continue // too small, or symmetric to a bin already tried
		}
		w.rem[b] = rem - s
		w.items[pos].bin = b
		ok := w.pack(pos + 1)
		w.rem[b] = rem
		if ok {
			return true
		}
		if w.frozen {
			return false
		}
	}
	w.failed[string(w.stateKey(pos))] = true
	return false
}

// fillUnits deals the unit clusters into the bins' remainders.
func (w *witness) fillUnits() {
	b := 0
	for i := w.multi; i < len(w.items); i++ {
		for w.rem[b] == 0 {
			b++
		}
		w.items[i].bin = b
		w.rem[b]--
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// stateKey encodes (pos, sorted bin remainders) into w.key.
func (w *witness) stateKey(pos int) []byte {
	w.sorted = append(w.sorted[:0], w.rem...)
	sort.Ints(w.sorted)
	w.key = binary.AppendUvarint(w.key[:0], uint64(pos))
	for _, rem := range w.sorted {
		w.key = binary.AppendUvarint(w.key, uint64(rem))
	}
	return w.key
}

// clusterThreadBalanced combines the best-ranked pair whose merge keeps
// the thread-balanced p-way partition reachable. A rejected pair is
// dropped for good: cluster sizes never change, and merges only coarsen
// the size multiset, so a merge with no packing now never gains one (a
// packing of the coarser multiset splits into one of the finer). While
// more than p clusters remain some bin of the witness holds two, so the
// loop always finds a merge.
func clusterThreadBalanced(r *ranker, t, p int) ([][]int, error) {
	w := newWitness(t, p)
	for len(r.live) > p {
		merged := false
		for {
			c, ok := r.pop()
			if !ok {
				break
			}
			lo, hi := int(c.lo), int(c.hi)
			if len(r.clusters[lo].members)+len(r.clusters[hi].members) > w.ceil || !w.admit(r, lo, hi) {
				continue
			}
			r.merge(lo, hi)
			w.bin = append(w.bin, w.bin[lo]) // the merged cluster's ID is next
			merged = true
			break
		}
		if !merged {
			return nil, fmt.Errorf("no thread-balanced %d-way clustering of %d threads exists", p, t)
		}
	}
	return r.members(), nil
}

// clusterLoadBalanced applies the metric first and the load criterion
// second (paper §2 item 8): the best-ranked pair whose combined load stays
// within (1+slack) of the ideal per-processor load is combined. A pair
// that fails the load test is dropped for good, since a cluster's load
// never changes. When no pair satisfies the load criterion, the pair
// yielding the smallest combined load is merged so the algorithm always
// terminates with exactly p clusters — this mirrors the paper's
// observation that "+LB" algorithms sometimes cannot generate a well
// balanced load because they satisfy the sharing criteria first.
func clusterLoadBalanced(r *ranker, p int, slack float64) [][]int {
	var total uint64
	for _, l := range r.d.Lengths {
		total += l
	}
	ideal := float64(total) / float64(p)
	limit := ideal * (1 + slack)

	for len(r.live) > p {
		merged := false
		for {
			c, ok := r.pop()
			if !ok {
				break
			}
			if float64(r.clusters[c.lo].load)+float64(r.clusters[c.hi].load) <= limit {
				r.merge(int(c.lo), int(c.hi))
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		// Fallback: minimize the resulting cluster's load.
		bi, bj, best := -1, -1, 0.0
		for x, i := range r.live {
			for _, j := range r.live[x+1:] {
				l := float64(r.clusters[i].load) + float64(r.clusters[j].load)
				if bi == -1 || l < best {
					bi, bj, best = i, j, l
				}
			}
		}
		r.merge(bi, bj)
	}
	return r.members()
}
