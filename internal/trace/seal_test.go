package trace

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// recordRamp records thread i of tr as refs[i] events, each of gap j%7 to
// word address 8*(1000*i+j).
func recordRamp(tr *Trace, refs []int) {
	for i, n := range refs {
		r := NewRecorder(tr, i)
		for j := 0; j < n; j++ {
			r.Compute(j % 7)
			r.Load(uint64(8 * (1000*i + j)))
		}
	}
}

// checkRamp checks thread i's events from event from on.
func checkRamp(t *testing.T, th *Thread, from, n int) {
	t.Helper()
	if th.Refs() != n {
		t.Fatalf("thread %d: %d refs, want %d", th.ID, th.Refs(), n)
	}
	for j := from; j < n; j++ {
		want := Event{Gap: uint32(j % 7), Kind: Read, Addr: uint64(8 * (1000*th.ID + j))}
		if got := th.Event(j); got != want {
			t.Fatalf("thread %d event %d = %+v, want %+v", th.ID, j, got, want)
		}
	}
}

// checkOneSlab checks that the threads' events are sealed back to back in
// one array, each thread's slice at its exact size.
func checkOneSlab(t *testing.T, tr *Trace) {
	t.Helper()
	var end uintptr
	for _, th := range tr.Threads {
		ev := th.sealed()
		if cap(ev) != len(ev) {
			t.Errorf("thread %d: cap %d, len %d; want exact size", th.ID, cap(ev), len(ev))
		}
		if len(ev) == 0 {
			continue
		}
		start := uintptr(unsafe.Pointer(unsafe.SliceData(ev)))
		if end != 0 && start != end {
			t.Errorf("thread %d does not start where the previous thread ends: not one slab", th.ID)
		}
		end = start + uintptr(len(ev))*unsafe.Sizeof(ev[0])
	}
}

// TestSealOneExactSlab: the first read seals every thread, empty, short
// or spanning several staging chunks, into one exact-size slab, with the
// thread totals the events imply.
func TestSealOneExactSlab(t *testing.T) {
	refs := []int{3, 0, chunkEvents, chunkEvents + 1, 3*chunkEvents + 17}
	tr := New("slab", len(refs))
	recordRamp(tr, refs)
	for i, n := range refs {
		checkRamp(t, tr.Threads[i], 0, n)
		var instr uint64
		for j := 0; j < n; j++ {
			instr += uint64(j%7) + 1
		}
		if got := tr.Threads[i].Instructions(); got != instr {
			t.Errorf("thread %d: %d instructions, want %d", i, got, instr)
		}
		if got := tr.Threads[i].Reads(); got != uint64(n) {
			t.Errorf("thread %d: %d reads, want %d", i, got, n)
		}
	}
	checkOneSlab(t, tr)

	// The binary reader stages and seals through the same path. (MTT2
	// holds no empty thread.)
	full := New("slab", 3)
	recordRamp(full, []int{3, chunkEvents + 1, 2 * chunkEvents})
	var buf bytes.Buffer
	if _, err := full.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.staged.Load() {
		t.Error("ReadFrom returned a trace with staged events")
	}
	checkOneSlab(t, back)
}

// TestRecordAfterRead: a recorder may go on after its thread was read.
// The next read seals the new events after the old ones; a cursor made
// before them reads the events its thread held then.
func TestRecordAfterRead(t *testing.T) {
	tr := New("reopen", 2)
	recordRamp(tr, []int{10, 20})
	before := tr.Threads[0].Cursor()
	r := NewRecorder(tr, 0)
	if r.Refs() != 10 {
		t.Fatalf("recorder counts %d refs, want 10", r.Refs())
	}
	for j := 10; j < 10+2*chunkEvents; j++ {
		r.Compute(j % 7)
		r.Load(uint64(8 * j))
	}
	if r.Refs() != 10+2*chunkEvents {
		t.Fatalf("recorder counts %d refs, want %d", r.Refs(), 10+2*chunkEvents)
	}
	checkRamp(t, tr.Threads[0], 0, 10+2*chunkEvents)
	checkRamp(t, tr.Threads[1], 0, 20)
	if before.Remaining() != 10 {
		t.Errorf("cursor made before the new events has %d remaining, want 10", before.Remaining())
	}
	if c := tr.Threads[0].Cursor(); c.Remaining() != 10+2*chunkEvents {
		t.Errorf("new cursor has %d remaining, want %d", c.Remaining(), 10+2*chunkEvents)
	}
}

// TestConcurrentFirstReaders: the first reads of a trace whose threads
// are all staged may come from several goroutines at once; one of them
// seals and all see the same events. Run under -race.
func TestConcurrentFirstReaders(t *testing.T) {
	refs := []int{chunkEvents + 5, 40, 2*chunkEvents + 1, 7}
	tr := New("readers", len(refs))
	recordRamp(tr, refs)
	const readers = 4
	got := make([][]uint64, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, th := range tr.Threads {
				got[g] = append(got[g], uint64(th.Refs()), th.Instructions())
				for c := th.Cursor(); ; {
					e, ok := c.Next()
					if !ok {
						break
					}
					got[g] = append(got[g], e.Addr)
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if !slices.Equal(got[g], got[0]) {
			t.Fatalf("reader %d saw a different trace from reader 0", g)
		}
	}
	for i, n := range refs {
		checkRamp(t, tr.Threads[i], 0, n)
	}
	checkOneSlab(t, tr)
}
