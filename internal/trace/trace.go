// Package trace defines the per-thread memory reference trace format used
// throughout the reproduction: a compact in-memory event encoding, a
// recorder for workload kernels, sequential cursors for the simulator, and
// a binary on-disk format.
//
// A trace models what the paper obtained from MPtrace on a Sequent
// Symmetry: for every thread of an explicitly parallel program, the ordered
// sequence of data memory references it performs, each annotated with the
// number of non-memory instructions executed since the previous reference.
//
// Addresses are word-granularity byte addresses. Addresses at or above
// SharedBase belong to the program's shared data segment; addresses below
// it are private to some thread. This mirrors the explicit shared-memory
// segment of the Sequent programming model the paper's workload used.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// SharedBase is the first address of the shared data segment. Every address
// >= SharedBase is shared-segment data; every address below is private.
const SharedBase uint64 = 1 << 40

// WordSize is the granularity of a data reference in bytes. Kernels address
// 8-byte words.
const WordSize = 8

// IsShared reports whether addr lies in the shared data segment.
func IsShared(addr uint64) bool { return addr >= SharedBase }

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Event is one memory reference: Gap instructions of pure computation are
// executed, then the reference itself (which also counts as one
// instruction).
type Event struct {
	// Gap is the number of non-memory instructions executed since the
	// previous reference (or since thread start).
	Gap uint32
	// Kind says whether the reference is a load or a store.
	Kind Kind
	// Addr is the word-aligned byte address referenced.
	Addr uint64
}

// Packed event layout (64 bits):
//
//	bits  0..43  address (44 bits, word addresses up to 16 TB)
//	bit   44     kind (0 = read, 1 = write)
//	bits 45..63  gap (19 bits, up to 524287 instructions)
//
// Gaps larger than maxGap are split by the recorder into filler events, so
// the packed form is lossless for any recorded trace.
const (
	addrBits = 44
	addrMask = (uint64(1) << addrBits) - 1
	kindBit  = uint64(1) << addrBits
	gapShift = addrBits + 1
	// MaxGap is the largest instruction gap representable in one packed
	// event. Recorder splits larger gaps across events.
	MaxGap = (uint32(1) << (64 - gapShift)) - 1
)

// MaxAddr is the largest representable address.
const MaxAddr = addrMask

// Pack encodes an event into its 64-bit representation. It panics if the
// address or gap exceeds the representable range; the Recorder never
// produces such events.
func Pack(e Event) uint64 {
	if e.Addr > addrMask {
		panic(fmt.Sprintf("trace: address %#x exceeds %d-bit range", e.Addr, addrBits))
	}
	if e.Gap > MaxGap {
		panic(fmt.Sprintf("trace: gap %d exceeds max %d", e.Gap, MaxGap))
	}
	w := e.Addr | uint64(e.Gap)<<gapShift
	if e.Kind == Write {
		w |= kindBit
	}
	return w
}

// Unpack decodes a packed event.
func Unpack(w uint64) Event {
	e := Event{
		Addr: w & addrMask,
		Gap:  uint32(w >> gapShift),
	}
	if w&kindBit != 0 {
		e.Kind = Write
	}
	return e
}

// Thread is one thread's complete reference stream.
type Thread struct {
	// ID is the thread's index within its application, dense from 0.
	ID int

	// tr is the trace whose seal makes this thread's staged events
	// readable (seal.go).
	tr *Trace
	// events are the sealed events: a slice of the trace's slab, with
	// cap == len.
	events []uint64
	// head and tail bound the chunks events were staged in since the
	// last seal, chunks counts them, and room is the free slots in tail.
	head, tail   *chunk
	chunks, room int

	// totals of the sealed events, kept by seal
	instr uint64
	reads uint64
}

// Refs returns the number of memory references in the thread.
func (t *Thread) Refs() int { return len(t.sealed()) }

// Event returns the i'th reference.
func (t *Thread) Event(i int) Event { return Unpack(t.sealed()[i]) }

// Instructions returns the thread's dynamic length in instructions: every
// reference counts as one instruction plus its preceding gap.
func (t *Thread) Instructions() uint64 {
	t.sealed()
	return t.instr
}

// Reads returns the number of load references.
func (t *Thread) Reads() uint64 {
	t.sealed()
	return t.reads
}

// Writes returns the number of store references.
func (t *Thread) Writes() uint64 { return uint64(t.Refs()) - t.Reads() }

// Cursor returns a sequential reader positioned at the first reference.
func (t *Thread) Cursor() *Cursor { return &Cursor{ev: t.sealed()} }

// Cursor iterates, in order, the references a thread held when the
// cursor was made. The zero Cursor is an empty stream; obtain one from
// Thread.Cursor.
type Cursor struct {
	ev  []uint64
	pos int
}

// Next returns the next reference and true, or a zero Event and false when
// the stream is exhausted.
func (c *Cursor) Next() (Event, bool) {
	if c.pos >= len(c.ev) {
		return Event{}, false
	}
	e := Unpack(c.ev[c.pos])
	c.pos++
	return e, true
}

// Remaining returns how many references have not yet been returned by Next.
func (c *Cursor) Remaining() int { return len(c.ev) - c.pos }

// Reset rewinds the cursor to the beginning of the thread.
func (c *Cursor) Reset() { c.pos = 0 }

// Trace is a complete application trace: one stream per thread.
type Trace struct {
	// App is the application name, e.g. "LocusRoute".
	App string
	// Threads holds every thread, indexed by Thread.ID.
	Threads []*Thread

	// mu serializes seals; staged is set while some thread holds staged
	// events (seal.go).
	mu     sync.Mutex
	staged atomic.Bool
}

// New returns an empty trace for the named application with n threads.
func New(app string, n int) *Trace {
	tr := &Trace{App: app, Threads: make([]*Thread, n)}
	ts := make([]Thread, n)
	for i := range ts {
		ts[i] = Thread{ID: i, tr: tr}
		tr.Threads[i] = &ts[i]
	}
	return tr
}

// NumThreads returns the number of threads in the trace.
func (tr *Trace) NumThreads() int { return len(tr.Threads) }

// TotalInstructions sums the dynamic lengths of all threads.
func (tr *Trace) TotalInstructions() uint64 {
	var n uint64
	for _, t := range tr.Threads {
		n += t.Instructions()
	}
	return n
}

// TotalRefs sums the reference counts of all threads.
func (tr *Trace) TotalRefs() uint64 {
	var n uint64
	for _, t := range tr.Threads {
		n += uint64(t.Refs())
	}
	return n
}

// Validate checks structural invariants: thread IDs dense and in order,
// addresses word-aligned, non-empty threads. It returns the first problem
// found, or nil.
func (tr *Trace) Validate() error {
	if tr.App == "" {
		return fmt.Errorf("trace: empty application name")
	}
	for i, t := range tr.Threads {
		if t == nil {
			return fmt.Errorf("trace: thread %d is nil", i)
		}
		if t.ID != i {
			return fmt.Errorf("trace: thread at index %d has ID %d", i, t.ID)
		}
		ev := t.sealed()
		if len(ev) == 0 {
			return fmt.Errorf("trace: thread %d has no references", i)
		}
		for j, w := range ev {
			if a := w & addrMask; a%WordSize != 0 {
				return fmt.Errorf("trace: thread %d event %d: address %#x not word-aligned", i, j, a)
			}
		}
	}
	return nil
}

// ThreadLengths returns every thread's dynamic length, indexed by thread ID.
func (tr *Trace) ThreadLengths() []uint64 {
	ls := make([]uint64, len(tr.Threads))
	for i, t := range tr.Threads {
		ls[i] = t.Instructions()
	}
	return ls
}

// SortedAddrs returns the distinct addresses referenced by thread t in
// ascending order. Intended for tests and diagnostics.
func (t *Thread) SortedAddrs() []uint64 {
	seen := make(map[uint64]struct{})
	for _, w := range t.sealed() {
		seen[w&addrMask] = struct{}{}
	}
	out := make([]uint64, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
