package analysis

// Pairwise sharing matrices. All matrices are symmetric with zero
// diagonals, indexed by thread ID.

// SharingData bundles every statically derived quantity the placement
// algorithms consume (§2 of the paper).
type SharingData struct {
	// App names the application the data was derived from.
	App string
	// SharedRefs[a][b] is shared-references(ta, tb): the number of
	// references made by threads a and b to their common data addresses.
	SharedRefs [][]uint64
	// SharedAddrs[a][b] is the number of distinct addresses referenced by
	// both a and b.
	SharedAddrs [][]uint64
	// WriteSharedRefs[a][b] counts references by a and b to common
	// addresses that at least one of the two writes — the invalidation-
	// relevant subset used by MAX-WRITES.
	WriteSharedRefs [][]uint64
	// InvalidatingRefs[a][b] counts the write references by a and b to
	// their common addresses — the references that can cause
	// invalidations if a and b run on different processors (MIN-INVS).
	InvalidatingRefs [][]uint64
	// PrivateAddrs[t] is thread t's distinct private address count
	// (MIN-PRIV).
	PrivateAddrs []int
	// Lengths[t] is thread t's dynamic length in instructions (LOAD-BAL
	// and the +LB variants).
	Lengths []uint64
}

// NumThreads returns the number of threads covered.
func (d *SharingData) NumThreads() int { return len(d.Lengths) }

// newMatrix returns an n×n matrix whose rows slice one flat backing
// array, and that array.
func newMatrix(n int) ([][]uint64, []uint64) {
	flat := make([]uint64, n*n)
	m := make([][]uint64, n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m, flat
}

// Sharing computes the full SharingData for the set. The computation walks
// the sorted inverted index once: an address used by k threads
// contributes to k·(k-1)/2 pairs, accumulated above the diagonal and
// mirrored below it at the end.
func (s *Set) Sharing() *SharingData {
	n := len(s.Profiles)
	refs, refsF := newMatrix(n)
	addrs, addrsF := newMatrix(n)
	wrefs, wrefsF := newMatrix(n)
	invs, invsF := newMatrix(n)
	uses := s.invertedIndex()
	for lo := 0; lo < len(uses); {
		hi := runEnd(uses, lo, 0)
		run := uses[lo:hi]
		for i, a := range run {
			ta, wa := a.count.Total(), uint64(a.count.Writes)
			row := a.thread * n
			for _, b := range run[i+1:] {
				k := row + b.thread
				tb, wb := b.count.Total(), uint64(b.count.Writes)
				r := ta + tb
				refsF[k] += r
				addrsF[k]++
				if wa > 0 || wb > 0 {
					wrefsF[k] += r
					invsF[k] += wa + wb
				}
			}
		}
		lo = hi
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			refsF[b*n+a] = refsF[a*n+b]
			addrsF[b*n+a] = addrsF[a*n+b]
			wrefsF[b*n+a] = wrefsF[a*n+b]
			invsF[b*n+a] = invsF[a*n+b]
		}
	}
	return &SharingData{
		App:              s.App,
		SharedRefs:       refs,
		SharedAddrs:      addrs,
		WriteSharedRefs:  wrefs,
		InvalidatingRefs: invs,
		PrivateAddrs:     s.PrivateAddrs(),
		Lengths:          s.Lengths(),
	}
}
