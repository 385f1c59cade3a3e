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
	"math/bits"
	"slices"

	"repro/internal/trace"
)

// RefCount tallies loads and stores to a single address by a single thread.
type RefCount struct {
	Reads  uint32
	Writes uint32
}

// Total returns reads+writes.
func (c RefCount) Total() uint64 { return uint64(c.Reads) + uint64(c.Writes) }

// AddrCount is one thread's reference counts for one shared address.
type AddrCount struct {
	Addr  uint64
	Count RefCount
}

// Profile summarizes one thread's memory footprint.
type Profile struct {
	// Thread is the thread ID within the application.
	Thread int
	// Shared lists each shared-segment address the thread touched, with
	// its reference counts, in the order of the thread's first touch.
	Shared []AddrCount
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
	return newProfiler().profile(t)
}

// profiler profiles one thread at a time. Analyze makes one and reuses it
// for every thread, so its table and list grow only when a thread touches
// more distinct addresses than every thread before it.
type profiler struct {
	// seen maps each address the current thread touched to its index in
	// shared, or to -1 for a private address.
	seen addrTable
	// shared is the current thread's shared addresses in first-touch
	// order.
	shared []AddrCount
}

func newProfiler() *profiler {
	pf := &profiler{}
	pf.seen.alloc(minTableSlots)
	return pf
}

// profile computes t's profile. Its Shared list is a copy of the reused
// list, so the profile keeps nothing the next thread overwrites.
func (pf *profiler) profile(t *trace.Thread) *Profile {
	pf.seen.reset()
	pf.shared = pf.shared[:0]
	p := &Profile{Thread: t.ID, TotalRefs: uint64(t.Refs()), Length: t.Instructions()}
	pf.count(t, p)
	p.Shared = slices.Clone(pf.shared)
	return p
}

// count tallies t's references into p's shared and private counts and
// pf.shared: one table probe per reference, and one append per distinct
// shared address.
//
//mtlint:hotpath
func (pf *profiler) count(t *trace.Thread, p *Profile) {
	for c := t.Cursor(); ; {
		e, ok := c.Next()
		if !ok {
			break
		}
		if !trace.IsShared(e.Addr) {
			if _, found := pf.seen.insert(e.Addr, -1); !found {
				p.PrivateAddrs++
			}
			continue
		}
		p.SharedRefs++
		i, found := pf.seen.insert(e.Addr, int32(len(pf.shared)))
		if !found {
			pf.shared = append(pf.shared, AddrCount{Addr: e.Addr})
		}
		if e.Kind == trace.Write {
			pf.shared[i].Count.Writes++
		} else {
			pf.shared[i].Count.Reads++
		}
	}
}

// addrTable maps addresses to int32 values: open addressing with a
// multiplicative (Fibonacci) hash and linear probing over a power-of-two
// slot array kept at most half full. It has no delete; reset empties it
// and keeps its capacity. A slot stores its address plus one, so the zero
// key marks an empty slot and address 0 is an ordinary key (addresses are
// at most trace.MaxAddr).
type addrTable struct {
	slots []addrSlot
	used  int
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the home slot
}

type addrSlot struct {
	key uint64
	val int32
}

// minTableSlots is a new table's capacity: 512 addresses before the first
// doubling.
const minTableSlots = 1024

// fibMul is 2^64 divided by the golden ratio, the Fibonacci hash's
// multiplier.
const fibMul = 0x9e3779b97f4a7c15

// alloc gives t an empty slot array of n slots, n a power of two.
func (t *addrTable) alloc(n int) {
	t.slots = make([]addrSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// reset empties the table.
func (t *addrTable) reset() {
	clear(t.slots)
	t.used = 0
}

// insert returns the value stored for addr and true, or stores v for addr
// and returns v and false.
//
//mtlint:hotpath
func (t *addrTable) insert(addr uint64, v int32) (int32, bool) {
	key := addr + 1
	mask := len(t.slots) - 1
	for i := int(key * fibMul >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == 0 {
			s.key, s.val = key, v
			if t.used++; 2*t.used > len(t.slots) {
				t.grow()
			}
			return v, false
		}
	}
}

// grow doubles the slot array and re-inserts every key.
func (t *addrTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	t.used = 0
	for _, s := range old {
		if s.key != 0 {
			t.insert(s.key-1, s.val)
		}
	}
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

// Analyze profiles every thread of tr, reusing one profiler for all of
// them.
func Analyze(tr *trace.Trace) *Set {
	s := &Set{App: tr.App, Profiles: make([]*Profile, tr.NumThreads())}
	pf := newProfiler()
	for i, t := range tr.Threads {
		s.Profiles[i] = pf.profile(t)
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
			for _, u := range p.Shared {
				uses = append(uses, addrUse{addr: u.Addr, thread: p.Thread, count: u.Count})
			}
		}
		s.uses = sortUses(uses)
	}
	return s.uses
}

// sortUses orders uses by address and then thread. The uses arrive in
// ascending thread order, so a stable LSD radix sort on the address alone
// yields that order, whatever order each thread first touched its
// addresses in.
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
