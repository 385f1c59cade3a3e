// Package memo is the one memo table of the reproduction. Every cell
// the method computes — a trace, a static analysis, a placement, a
// simulation, mtserve's served result and the suite behind it — is a
// pure function of its key, computed once and then read many times.
// Table holds that rule in one place:
//
//   - Do computes each key exactly once while the key is resident;
//     concurrent callers of an in-flight key wait for its outcome
//     instead of computing it again.
//   - A table may bound its finished entries (capacity > 0) and then
//     evicts the least recently used one. In-flight entries are never
//     evicted and do not count against the bound; capacity 0 keeps
//     everything.
//   - A failed computation reaches the callers already waiting on it
//     and is then forgotten, so the next call computes again.
//   - hits + misses = calls. A caller that waits on another caller's
//     computation counts as a miss and as a shared wait.
//
// compute runs on the calling goroutine and is never stored, so a
// caller's closure stays on its stack: a resident hit allocates
// nothing. The table has no Peek, Put or durable hook; a caller that
// reads or writes a store does so inside compute or after Do returns.
//
// memo is inside the determinism analyzers' time/rand scope: eviction
// order decides which results a server reports as cached, so it must
// follow use order, never the wall clock or a random source.
package memo

import (
	"errors"
	"sync"
)

// Outcome says how a Do call got its value.
type Outcome uint8

const (
	// Hit: the key was resident and finished; nothing ran.
	Hit Outcome = iota
	// Computed: this call ran compute.
	Computed
	// Shared: another call's compute was in flight, and this call
	// waited for its outcome.
	Shared
)

// errAbandoned is the error waiters receive when the computation they
// waited on panicked or exited its goroutine instead of returning.
var errAbandoned = errors.New("memo: computation abandoned")

// Stats is a point-in-time snapshot of a table's counters.
type Stats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Table maps keys to computed values. Safe for concurrent use. Values
// are shared between callers and must be treated as read-only.
type Table[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	index    map[K]*entry[K, V] // in-flight and finished entries
	// head and tail of the use-ordered list of finished entries; head
	// is the most recently used.
	head, tail *entry[K, V]
	entries    int // finished entries, the ones the capacity bounds

	hits, misses, shared, evictions uint64
}

// entry is one key's computation. val and err are written once, before
// done closes; a waiter reads them after done.
type entry[K comparable, V any] struct {
	key K
	val V     //mtlint:guard channel -- written once before close(done)
	err error //mtlint:guard channel -- written once before close(done)
	// ready marks a finished, successful entry: resident on the list.
	ready      bool
	done       chan struct{}
	prev, next *entry[K, V]
}

// New returns a table bounded to capacity finished entries; capacity 0
// (or less) means unbounded.
func New[K comparable, V any](capacity int) *Table[K, V] {
	return &Table[K, V]{capacity: max(capacity, 0), index: make(map[K]*entry[K, V])}
}

// Do returns the value for key, running compute when the key is
// neither resident nor in flight. This is the resident-hit fast path:
// one map probe and a list splice under the lock, no allocation and
// no defer; everything else is miss.
//
//mtlint:hotpath
func (t *Table[K, V]) Do(key K, compute func() (V, error)) (V, Outcome, error) {
	t.mu.Lock()
	if e := t.index[key]; e != nil && e.ready {
		v := t.hitLocked(e)
		t.mu.Unlock()
		return v, Hit, nil
	}
	t.mu.Unlock()
	return t.miss(key, compute)
}

// hitLocked counts a hit on finished entry e and marks it most recently
// used. Caller holds the lock.
//
//mtlint:hotpath
func (t *Table[K, V]) hitLocked(e *entry[K, V]) V {
	t.hits++
	if t.head != e {
		t.unlink(e)
		t.pushFront(e)
	}
	return e.val
}

// miss waits on an in-flight computation of key or starts one. The key
// may have finished since Do looked, which is still a hit.
func (t *Table[K, V]) miss(key K, compute func() (V, error)) (V, Outcome, error) {
	t.mu.Lock()
	e := t.index[key]
	if e != nil && e.ready {
		v := t.hitLocked(e)
		t.mu.Unlock()
		return v, Hit, nil
	}
	t.misses++
	if e != nil {
		t.shared++
		t.mu.Unlock()
		<-e.done
		return e.val, Shared, e.err
	}
	e = &entry[K, V]{key: key, done: make(chan struct{})}
	t.index[key] = e
	t.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			var zero V
			t.finish(e, zero, errAbandoned)
		}
	}()
	v, err := compute()
	returned = true
	t.finish(e, v, err)
	return v, Computed, err
}

// finish publishes e's outcome: a value becomes the most recently used
// resident entry (evicting past the capacity), an error forgets the
// key. Waiters wake after the table is updated.
func (t *Table[K, V]) finish(e *entry[K, V], v V, err error) {
	t.mu.Lock()
	e.val, e.err = v, err
	if err != nil {
		delete(t.index, e.key)
	} else {
		e.ready = true
		t.pushFront(e)
		t.entries++
		for t.capacity > 0 && t.entries > t.capacity {
			victim := t.tail
			t.unlink(victim)
			delete(t.index, victim.key)
			t.entries--
			t.evictions++
		}
	}
	t.mu.Unlock()
	close(e.done)
}

// pushFront links e at the head of the list. Caller holds the lock.
//
//mtlint:hotpath
func (t *Table[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

// unlink removes e from the list. Caller holds the lock.
//
//mtlint:hotpath
func (t *Table[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats snapshots the table's counters.
func (t *Table[K, V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Entries:   t.entries,
		Capacity:  t.capacity,
		Hits:      t.hits,
		Misses:    t.misses,
		Shared:    t.shared,
		Evictions: t.evictions,
	}
}
