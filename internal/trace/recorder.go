package trace

import "fmt"

// Recorder builds one thread's reference stream. Workload kernels drive it
// through Compute/Load/Store calls; it accumulates the instruction gap
// between references and splits gaps that exceed the packed-event range.
//
// A Recorder is not safe for concurrent use; each simulated thread owns its
// own Recorder. Recorders of different threads may run at once, but no
// thread of the trace may be read meanwhile: a read seals them all.
type Recorder struct {
	t   *Thread
	gap uint64
}

// NewRecorder returns a recorder appending to thread t of trace tr.
// It panics if t is out of range.
func NewRecorder(tr *Trace, t int) *Recorder {
	if t < 0 || t >= len(tr.Threads) {
		panic(fmt.Sprintf("trace: recorder for thread %d of %d", t, len(tr.Threads)))
	}
	return &Recorder{t: tr.Threads[t]}
}

// Thread returns the thread being recorded.
func (r *Recorder) Thread() *Thread { return r.t }

// Compute records n non-memory instructions of pure computation.
func (r *Recorder) Compute(n int) {
	if n < 0 {
		panic("trace: negative compute count")
	}
	r.gap += uint64(n)
}

// Load records a data load of addr.
func (r *Recorder) Load(addr uint64) { r.ref(Read, addr) }

// Store records a data store to addr.
func (r *Recorder) Store(addr uint64) { r.ref(Write, addr) }

// Ref records a reference of the given kind.
func (r *Recorder) Ref(k Kind, addr uint64) { r.ref(k, addr) }

func (r *Recorder) ref(k Kind, addr uint64) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("trace: unaligned address %#x", addr))
	}
	// Oversized gaps are split across filler reads of the same address.
	// The filler references touch the target address, so they do not
	// perturb the thread's address footprint; each filler adds one
	// instruction (itself) on top of the recorded computation.
	for r.gap > uint64(MaxGap) {
		r.t.append(Pack(Event{Gap: MaxGap, Kind: Read, Addr: addr}))
		r.gap -= uint64(MaxGap)
	}
	r.t.append(Pack(Event{Gap: uint32(r.gap), Kind: k, Addr: addr}))
	r.gap = 0
}

// Refs returns how many references the recorder's thread holds. It does
// not seal the trace, so recording may go on.
func (r *Recorder) Refs() int { return len(r.t.events) + r.t.staged() }

// PendingGap returns computation recorded since the last reference that has
// not yet been attached to an event. A trace whose threads end with a
// pending gap silently drops that tail work; kernels should end each thread
// with a reference (the substrate's Finish helper does this).
func (r *Recorder) PendingGap() uint64 { return r.gap }
