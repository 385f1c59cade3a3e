package memo

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value is the pure function every test table memoizes.
func value(k int) string { return fmt.Sprintf("v%d", k) }

// compute returns a compute for key k that counts its runs in n.
func compute(k int, n *atomic.Int64) func() (string, error) {
	return func() (string, error) {
		n.Add(1)
		return value(k), nil
	}
}

// do calls tb.Do for k and fails the test on an error or a wrong value.
func do(t *testing.T, tb *Table[int, string], k int, n *atomic.Int64) Outcome {
	t.Helper()
	v, how, err := tb.Do(k, compute(k, n))
	if err != nil || v != value(k) {
		t.Fatalf("Do(%d) = %q, %v; want %q", k, v, err, value(k))
	}
	return how
}

// waitShared blocks until n callers wait on in-flight computations.
func waitShared(t *testing.T, tb *Table[int, string], n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tb.Stats().Shared < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d shared waits after 10 s, want %d", tb.Stats().Shared, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProperty: N goroutines call Do on random keys against several
// capacities. Every call returns its key's value, hits + misses =
// calls, every computation starts a residency (so computations =
// evictions + resident entries, and no key is computed twice while
// resident), and no key is ever computed by two goroutines at once.
func TestProperty(t *testing.T) {
	const goroutines, calls, keys = 8, 2000, 64
	for _, capacity := range []int{0, 1, 7, 32, keys} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			tb := New[int, string](capacity)
			var computes, computed atomic.Int64
			var running [keys]atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 1))
					for i := 0; i < calls; i++ {
						k := rng.Intn(keys)
						v, how, err := tb.Do(k, func() (string, error) {
							if running[k].Add(1) != 1 {
								t.Errorf("key %d computed by two callers at once", k)
							}
							computes.Add(1)
							if rng.Intn(4) == 0 {
								time.Sleep(10 * time.Microsecond)
							}
							running[k].Add(-1)
							return value(k), nil
						})
						if err != nil || v != value(k) {
							t.Errorf("Do(%d) = %q, %v", k, v, err)
						}
						if how == Computed {
							computed.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			st := tb.Stats()
			if st.Hits+st.Misses != goroutines*calls {
				t.Errorf("hits %d + misses %d != %d calls", st.Hits, st.Misses, goroutines*calls)
			}
			if n := computes.Load(); n != computed.Load() || uint64(n) != st.Misses-st.Shared {
				t.Errorf("%d computations, %d Computed outcomes, %d misses - %d shared",
					n, computed.Load(), st.Misses, st.Shared)
			}
			if n := uint64(computes.Load()); n != st.Evictions+uint64(st.Entries) {
				t.Errorf("%d computations but %d evictions + %d resident: a key computed twice in one residency",
					n, st.Evictions, st.Entries)
			}
			if capacity > 0 && st.Entries > capacity {
				t.Errorf("%d resident entries over capacity %d", st.Entries, capacity)
			}
			if capacity == 0 && (st.Evictions != 0 || st.Entries != keys) {
				t.Errorf("unbounded table: %d evictions, %d entries; want 0, %d", st.Evictions, st.Entries, keys)
			}
		})
	}
}

// TestEvictedKeyRecomputes: an evicted key computes again, to an equal
// value, and is then resident again.
func TestEvictedKeyRecomputes(t *testing.T) {
	tb := New[int, string](1)
	var n atomic.Int64
	do(t, tb, 1, &n)
	do(t, tb, 2, &n) // evicts 1
	if how := do(t, tb, 1, &n); how != Computed {
		t.Fatalf("evicted key: outcome %d, want Computed", how)
	}
	if how := do(t, tb, 1, &n); how != Hit {
		t.Fatalf("recomputed key: outcome %d, want Hit", how)
	}
	if n.Load() != 3 {
		t.Fatalf("%d computations, want 3", n.Load())
	}
}

// TestComputeBlocksNoOtherKey: a computation held on a channel blocks
// neither a hit on a second key nor the computation of a third. This is
// the stall a table-wide lock held across computations would cause.
func TestComputeBlocksNoOtherKey(t *testing.T) {
	tb := New[int, string](0)
	var n atomic.Int64
	do(t, tb, 2, &n)

	release := make(chan struct{})
	held := make(chan struct{})
	go tb.Do(1, func() (string, error) {
		close(held)
		<-release
		return value(1), nil
	})
	<-held
	defer close(release)

	got := make(chan [2]Outcome, 1)
	go func() {
		_, hit, _ := tb.Do(2, compute(2, &n))
		_, fresh, _ := tb.Do(3, compute(3, &n))
		got <- [2]Outcome{hit, fresh}
	}()
	select {
	case o := <-got:
		if o != [2]Outcome{Hit, Computed} {
			t.Errorf("behind a held computation: outcomes %v, want [Hit Computed]", o)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a held computation blocked other keys for 10 s")
	}
}

// TestFailureReachesWaitersThenRecomputes: a failed computation's error
// reaches every caller waiting on it, the key is forgotten, and the
// next call computes again.
func TestFailureReachesWaitersThenRecomputes(t *testing.T) {
	tb := New[int, string](0)
	boom := errors.New("boom")
	release := make(chan struct{})
	held := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := tb.Do(1, func() (string, error) {
			close(held)
			<-release
			return "", boom
		})
		first <- err
	}()
	<-held

	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, how, err := tb.Do(1, func() (string, error) {
				t.Error("a waiter computed an in-flight key")
				return "", nil
			})
			if how != Shared {
				t.Errorf("waiter outcome %d, want Shared", how)
			}
			errs <- err
		}()
	}
	waitShared(t, tb, waiters)
	close(release)
	if err := <-first; err != boom {
		t.Fatalf("computing caller got %v, want boom", err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != boom {
			t.Fatalf("waiter got %v, want boom", err)
		}
	}
	if st := tb.Stats(); st.Entries != 0 {
		t.Fatalf("failed computation left %d resident entries", st.Entries)
	}
	var n atomic.Int64
	if how := do(t, tb, 1, &n); how != Computed || n.Load() != 1 {
		t.Fatalf("call after a failure: outcome %d, %d computations; want Computed, 1", how, n.Load())
	}
}

// TestPanicReleasesWaiters: a computation that panics hands its waiters
// errAbandoned and is forgotten; the panic reaches its own caller.
func TestPanicReleasesWaiters(t *testing.T) {
	tb := New[int, string](0)
	release := make(chan struct{})
	held := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		tb.Do(1, func() (string, error) {
			close(held)
			<-release
			panic("compute panicked")
		})
	}()
	<-held
	errs := make(chan error, 1)
	go func() {
		_, _, err := tb.Do(1, func() (string, error) { return "", nil })
		errs <- err
	}()
	waitShared(t, tb, 1)
	close(release)
	if r := <-recovered; r != "compute panicked" {
		t.Fatalf("computing caller recovered %v", r)
	}
	if err := <-errs; err != errAbandoned {
		t.Fatalf("waiter got %v, want errAbandoned", err)
	}
	var n atomic.Int64
	if how := do(t, tb, 1, &n); how != Computed {
		t.Fatalf("call after a panic: outcome %d, want Computed", how)
	}
}

// TestPressureNeverEvictsInFlight: with capacity 1, finishing other keys
// while one is in flight evicts only finished entries; the in-flight
// key computes once, its late callers share it, and it is resident once
// it finishes.
func TestPressureNeverEvictsInFlight(t *testing.T) {
	tb := New[int, string](1)
	var inflight atomic.Int64
	release := make(chan struct{})
	held := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tb.Do(0, func() (string, error) {
			inflight.Add(1)
			close(held)
			<-release
			return value(0), nil
		})
	}()
	<-held

	var n atomic.Int64
	for k := 1; k <= 5; k++ {
		do(t, tb, k, &n)
		if st := tb.Stats(); st.Entries > 1 {
			t.Fatalf("%d resident entries over capacity 1", st.Entries)
		}
	}
	shared := make(chan Outcome, 1)
	go func() {
		_, how, _ := tb.Do(0, compute(0, &inflight))
		shared <- how
	}()
	waitShared(t, tb, 1)
	close(release)
	<-done
	if how := <-shared; how != Shared {
		t.Errorf("late caller of the in-flight key: outcome %d, want Shared", how)
	}
	if how := do(t, tb, 0, &inflight); how != Hit {
		t.Errorf("finished key: outcome %d, want Hit", how)
	}
	if inflight.Load() != 1 {
		t.Errorf("in-flight key computed %d times, want 1", inflight.Load())
	}
	if st := tb.Stats(); st.Evictions != 5 || st.Entries != 1 {
		t.Errorf("stats %+v, want 5 evictions and 1 entry", st)
	}
}

// TestHitAllocatesNothing: a resident hit allocates nothing, with a
// closure that captures its caller's variables (the way every caller
// passes compute).
func TestHitAllocatesNothing(t *testing.T) {
	type cell struct {
		app   string
		procs int
	}
	tb := New[cell, *int](0)
	v := 7
	key := cell{app: "Gauss", procs: 4}
	get := func() {
		got, _, err := tb.Do(key, func() (*int, error) { return &v, nil })
		if got != &v || err != nil {
			t.Fatalf("Do = %v, %v", got, err)
		}
	}
	get()
	if allocs := testing.AllocsPerRun(1000, get); allocs != 0 {
		t.Fatalf("resident hit allocates %.1f times per call, want 0", allocs)
	}
}

// TestCacheLRU: eviction order is least recently used, and a hit
// promotes.
func TestCacheLRU(t *testing.T) {
	tb := New[int, string](2)
	var n atomic.Int64
	do(t, tb, 1, &n)
	do(t, tb, 2, &n)
	if how := do(t, tb, 1, &n); how != Hit {
		t.Fatalf("Do(1): outcome %d, want Hit", how)
	}
	do(t, tb, 3, &n) // evicts 2: 1 was just used
	if how := do(t, tb, 1, &n); how != Hit {
		t.Fatal("promoted entry was evicted instead of the least recently used")
	}
	if how := do(t, tb, 3, &n); how != Hit {
		t.Fatal("newest entry missing")
	}
	st := tb.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, capacity 2, 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 hits, 3 misses", st)
	}
	if how := do(t, tb, 2, &n); how != Computed {
		t.Fatal("evicted entry was still resident")
	}
	if how := do(t, tb, 1, &n); how != Computed {
		t.Fatal("Do(2) evicted 3, not the least recently used 1")
	}
}

// TestCacheChurn: far past capacity the table holds exactly the most
// recent entries, and evicted entries leave its index, so memory stays
// bounded by the capacity.
func TestCacheChurn(t *testing.T) {
	const capacity, total = 8, 200
	tb := New[int, string](capacity)
	var n atomic.Int64
	for i := 0; i < total; i++ {
		do(t, tb, i, &n)
	}
	for i := total - capacity; i < total; i++ {
		if how := do(t, tb, i, &n); how != Hit {
			t.Fatalf("recent entry %d not resident", i)
		}
	}
	if st := tb.Stats(); st.Entries != capacity || len(tb.index) != capacity {
		t.Fatalf("%d entries, %d indexed; want %d", st.Entries, len(tb.index), capacity)
	}
}

// TestCacheConcurrent hammers Do from many goroutines over more keys
// than the capacity; run under -race this is the data-race proof for
// the serving hot path.
func TestCacheConcurrent(t *testing.T) {
	tb := New[int, string](16)
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 40
				if v, _, err := tb.Do(k, compute(k, &n)); err != nil || v != value(k) {
					t.Errorf("Do(%d) = %q, %v", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := tb.Stats(); st.Entries > 16 || len(tb.index) > 16 || st.Hits+st.Misses != 8*500 {
		t.Fatalf("stats %+v with %d indexed: over capacity or miscounted", st, len(tb.index))
	}
}
