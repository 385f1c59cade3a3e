package analysis

// FalseSharingReport classifies the shared-segment cache lines of an
// application the way the paper's footnote 1 does: the paper counts
// distinct addresses rather than lines, noting its programs had little
// false sharing (0.2%-5.8% of data misses) after restructuring. This
// static analogue finds lines touched by multiple threads where no single
// word is touched by more than one thread — pure false sharing that
// placement algorithms working on addresses cannot see.
type FalseSharingReport struct {
	// LineSize is the cache line size analyzed, in bytes.
	LineSize int
	// SingleThreadLines are lines touched by exactly one thread.
	SingleThreadLines int
	// TrueSharedLines are multi-thread lines where at least one word is
	// itself touched by two or more threads.
	TrueSharedLines int
	// FalseOnlyLines are multi-thread lines where every word is private
	// to one thread: the line sharing is entirely an artifact of layout.
	FalseOnlyLines int
	// FalseOnlyRefs counts references to FalseOnlyLines.
	FalseOnlyRefs uint64
	// SharedSegmentRefs counts all shared-segment references.
	SharedSegmentRefs uint64
}

// MultiThreadLines returns the number of lines touched by several threads.
func (r FalseSharingReport) MultiThreadLines() int {
	return r.TrueSharedLines + r.FalseOnlyLines
}

// FalseOnlyRefsPct returns references to falsely shared lines as a
// percentage of shared-segment references.
func (r FalseSharingReport) FalseOnlyRefsPct() float64 {
	if r.SharedSegmentRefs == 0 {
		return 0
	}
	return float64(r.FalseOnlyRefs) / float64(r.SharedSegmentRefs) * 100
}

// FalseSharing computes the report for the given line size. The inverted
// index is sorted by address, so each line's uses form one run.
func (s *Set) FalseSharing(lineSize int) FalseSharingReport {
	r := FalseSharingReport{LineSize: lineSize}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	uses := s.uses
	for lo := 0; lo < len(uses); {
		hi := runEnd(uses, lo, shift)
		var refs uint64
		multi, trueWord := false, false
		for i := lo; i < hi; i++ {
			refs += uses[i].count.Total()
			multi = multi || uses[i].thread != uses[lo].thread
			// A word touched by two or more threads marks its line as
			// truly shared.
			trueWord = trueWord || (i > lo && uses[i].addr == uses[i-1].addr)
		}
		r.SharedSegmentRefs += refs
		switch {
		case !multi:
			r.SingleThreadLines++
		case trueWord:
			r.TrueSharedLines++
		default:
			r.FalseOnlyLines++
			r.FalseOnlyRefs += refs
		}
		lo = hi
	}
	return r
}

// DefaultFalseSharing runs FalseSharing at the paper's 32-byte line size.
func (s *Set) DefaultFalseSharing() FalseSharingReport {
	return s.FalseSharing(32)
}
