package trace

import "sync"

// Staging and sealing. A thread's events are recorded (or decoded) into
// fixed-size chunks taken from a pool shared by every trace, then sealed:
// every staged thread of the trace is copied into one slab allocated at
// its exact size, each thread's slice with cap == len, and the chunks go
// back to the pool for the next trace. A trace built once therefore
// allocates its events once; a slice per thread grown by doubling
// allocates about 3.4 times the events it keeps.
//
// Every reader reaches the events through Thread.sealed, which seals the
// trace first if any thread of it holds staged events, so no reader sees
// a staged thread. A read of one thread seals every thread of the trace,
// so reads must not overlap recording anywhere in the same trace. A
// recorder that appends to a thread after a read stages again, and the
// next read seals the threads it touched into a new slab.

// chunkEvents fills a chunk, with its link, to 4 KB, one of the
// allocator's size classes.
const chunkEvents = 511

// chunk is a run of staged events of one thread.
type chunk struct {
	ev   [chunkEvents]uint64
	next *chunk
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// append stages one packed event. It is the one way events enter a
// thread, for the Recorder and the binary reader alike.
func (t *Thread) append(w uint64) {
	if t.room == 0 {
		t.addChunk()
	}
	t.tail.ev[chunkEvents-t.room] = w
	t.room--
}

// addChunk links a fresh chunk after the thread's last one. The first
// chunk since a seal marks the trace as holding staged events.
func (t *Thread) addChunk() {
	c := chunkPool.Get().(*chunk)
	if t.tail == nil {
		t.head = c
		t.tr.staged.Store(true)
	} else {
		t.tail.next = c
	}
	t.tail, t.room = c, chunkEvents
	t.chunks++
}

// staged returns how many events the thread holds in chunks.
func (t *Thread) staged() int { return t.chunks*chunkEvents - t.room }

// sealed returns the thread's events, sealing its trace first if any of
// the trace's threads holds staged events. It stays out of line so that
// its callers inline, Cursor among them: a cursor its caller keeps is
// then made on the caller's stack.
//
//go:noinline
func (t *Thread) sealed() []uint64 {
	if t.tr.staged.Load() {
		t.tr.seal()
	}
	return t.events
}

// seal moves every staged event of the trace into one exact-size slab,
// after each thread's sealed events, and returns the chunks to the pool.
// It updates each touched thread's instruction and read totals, so a
// sealed thread is never written again until a recorder stages more.
func (tr *Trace) seal() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.staged.Load() {
		return
	}
	n := 0
	for _, t := range tr.Threads {
		if t.chunks > 0 {
			n += len(t.events) + t.staged()
		}
	}
	slab := make([]uint64, n)
	for _, t := range tr.Threads {
		if t.chunks == 0 {
			continue
		}
		k := len(t.events) + t.staged()
		ev := slab[:k:k]
		slab = slab[k:]
		old := copy(ev, t.events)
		rest := ev[old:]
		for c := t.head; c != nil; {
			rest = rest[copy(rest, c.ev[:]):]
			next := c.next
			c.next = nil
			chunkPool.Put(c)
			c = next
		}
		t.tally(ev[old:])
		t.events, t.head, t.tail, t.room, t.chunks = ev, nil, nil, 0, 0
	}
	tr.staged.Store(false)
}

// tally adds newly sealed events to the thread's instruction and read
// totals: every reference is one instruction plus its preceding gap.
func (t *Thread) tally(ev []uint64) {
	var n, r uint64
	for _, w := range ev {
		n += w>>gapShift + 1
		r += ^w >> addrBits & 1 // the kind bit is clear on a read
	}
	t.instr += n
	t.reads += r
}
