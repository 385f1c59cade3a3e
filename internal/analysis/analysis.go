// Package analysis performs the static, per-thread trace analysis the paper
// feeds to its placement algorithms (§2, §3.1): per-thread address
// footprints, pairwise and N-way inter-thread sharing, references per
// shared address, percentage of shared references, and thread lengths
// (the measured characteristics of Table 2).
//
// "Static" means derived from each thread's trace in isolation, with no
// cross-thread temporal information — exactly the limitation the paper
// identifies (§4.2): static shared-reference counts over-estimate runtime
// coherence traffic by one to three orders of magnitude.
package analysis

import (
	"fmt"

	"repro/internal/trace"
)

// RefCount tallies loads and stores to a single address by a single thread.
type RefCount struct {
	Reads  uint32
	Writes uint32
}

// Total returns reads+writes.
func (c RefCount) Total() uint64 { return uint64(c.Reads) + uint64(c.Writes) }

// Profile summarizes one thread's memory footprint.
type Profile struct {
	// Thread is the thread ID within the application.
	Thread int
	// Shared maps each shared-segment address the thread touched to its
	// reference counts.
	Shared map[uint64]RefCount
	// TotalRefs is the thread's total data reference count.
	TotalRefs uint64
	// SharedRefs is the number of references to the shared segment.
	SharedRefs uint64
	// PrivateAddrs is the number of distinct private addresses touched.
	PrivateAddrs int
	// Length is the thread's dynamic length in instructions.
	Length uint64
}

// SharedAddrs returns the number of distinct shared addresses touched.
func (p *Profile) SharedAddrs() int { return len(p.Shared) }

// RefsPerSharedAddr returns the thread's temporal-locality metric used by
// SHARE-ADDR: shared references divided by distinct shared addresses.
// It returns 0 for a thread that touches no shared data.
func (p *Profile) RefsPerSharedAddr() float64 {
	if len(p.Shared) == 0 {
		return 0
	}
	return float64(p.SharedRefs) / float64(len(p.Shared))
}

// ProfileThread computes a thread's footprint profile.
func ProfileThread(t *trace.Thread) *Profile {
	p := &Profile{Thread: t.ID, Shared: make(map[uint64]RefCount)}
	private := make(map[uint64]struct{})
	for c := t.Cursor(); ; {
		e, ok := c.Next()
		if !ok {
			break
		}
		p.TotalRefs++
		if trace.IsShared(e.Addr) {
			p.SharedRefs++
			rc := p.Shared[e.Addr]
			if e.Kind == trace.Write {
				rc.Writes++
			} else {
				rc.Reads++
			}
			p.Shared[e.Addr] = rc
		} else {
			private[e.Addr] = struct{}{}
		}
	}
	p.PrivateAddrs = len(private)
	p.Length = t.Instructions()
	return p
}

// Set is the full static analysis of one application trace.
type Set struct {
	// App is the application name.
	App string
	// Profiles holds one profile per thread, indexed by thread ID.
	Profiles []*Profile

	// inverted index: every (shared address, thread) count, sorted by
	// address and then thread; built lazily
	uses []addrUse
}

type addrUse struct {
	addr   uint64
	thread int
	count  RefCount
}

// Analyze profiles every thread of tr.
func Analyze(tr *trace.Trace) *Set {
	s := &Set{App: tr.App, Profiles: make([]*Profile, tr.NumThreads())}
	for i, t := range tr.Threads {
		s.Profiles[i] = ProfileThread(t)
	}
	return s
}

// NumThreads returns the number of threads analyzed.
func (s *Set) NumThreads() int { return len(s.Profiles) }

// invertedIndex returns the shared-address -> users index, built on first
// use: one list of every profile's shared-address counts, sorted by
// address and then thread, so each address's users form one run in
// ascending thread order.
func (s *Set) invertedIndex() []addrUse {
	if s.uses == nil {
		n := 0
		for _, p := range s.Profiles {
			n += len(p.Shared)
		}
		uses := make([]addrUse, 0, n)
		for _, p := range s.Profiles {
			//mtlint:allow determinism -- sortUses orders the list by its unique (address, thread) keys
			for a, c := range p.Shared {
				uses = append(uses, addrUse{addr: a, thread: p.Thread, count: c})
			}
		}
		s.uses = sortUses(uses)
	}
	return s.uses
}

// sortUses orders uses by address and then thread. The uses arrive in
// ascending thread order, so a stable LSD radix sort on the address alone
// yields that order, whatever order each thread's map produced.
func sortUses(uses []addrUse) []addrUse {
	if len(uses) < 2 {
		return uses
	}
	lo, hi := uses[0].addr, uses[0].addr
	for _, u := range uses {
		lo, hi = min(lo, u.addr), max(hi, u.addr)
	}
	buf := make([]addrUse, len(uses))
	for shift := uint(0); shift < 64 && (hi-lo)>>shift != 0; shift += 8 {
		var count [256]int
		for _, u := range uses {
			count[byte((u.addr-lo)>>shift)]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, u := range uses {
			d := byte((u.addr - lo) >> shift)
			buf[count[d]] = u
			count[d]++
		}
		uses, buf = buf, uses
	}
	return uses
}

// runEnd returns the end of the run of uses sharing uses[lo]'s address
// once shifted right by shift.
func runEnd(uses []addrUse, lo int, shift uint) int {
	key := uses[lo].addr >> shift
	hi := lo + 1
	for hi < len(uses) && uses[hi].addr>>shift == key {
		hi++
	}
	return hi
}

// Lengths returns every thread's dynamic length, indexed by thread ID.
func (s *Set) Lengths() []uint64 {
	ls := make([]uint64, len(s.Profiles))
	for i, p := range s.Profiles {
		ls[i] = p.Length
	}
	return ls
}

// PrivateAddrs returns every thread's distinct private address count.
func (s *Set) PrivateAddrs() []int {
	ns := make([]int, len(s.Profiles))
	for i, p := range s.Profiles {
		ns[i] = p.PrivateAddrs
	}
	return ns
}

// String summarizes the set for diagnostics.
func (s *Set) String() string {
	var refs uint64
	for _, p := range s.Profiles {
		refs += p.TotalRefs
	}
	return fmt.Sprintf("analysis.Set{%s: %d threads, %d refs}", s.App, len(s.Profiles), refs)
}
