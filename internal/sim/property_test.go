package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/placement"
	"repro/internal/trace"
)

// randWorkload derives a random synthetic trace, a random valid placement
// and a random (valid) configuration from one seed. It exercises both the
// power-of-two and the modulo set-index paths, associative and
// direct-mapped caches, both protocols, context caps, contention and
// write-run tracking.
func randWorkload(rng *rand.Rand) (*trace.Trace, *placement.Placement, Config) {
	threads := 1 + rng.Intn(6)
	tr := trace.New("quick", threads)
	for i := 0; i < threads; i++ {
		r := trace.NewRecorder(tr, i)
		refs := rng.Intn(400) // zero is legal: the engine must cope with empty threads
		for j := 0; j < refs; j++ {
			r.Compute(rng.Intn(6))
			var addr uint64
			if rng.Intn(3) == 0 {
				addr = uint64(i*4096+rng.Intn(64)) * trace.WordSize // private
			} else {
				addr = trace.SharedBase + uint64(rng.Intn(256))*trace.WordSize
			}
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}

	procs := 1 + rng.Intn(threads)
	clusters := make([][]int, procs)
	perm := rng.Perm(threads)
	// One thread per cluster first (empty clusters are invalid), the rest
	// wherever the dice land.
	for q := 0; q < procs; q++ {
		clusters[q] = []int{perm[q]}
	}
	for _, tid := range perm[procs:] {
		q := rng.Intn(procs)
		clusters[q] = append(clusters[q], tid)
	}
	pl := &placement.Placement{Algorithm: "QUICK", Clusters: clusters}

	cfg := DefaultConfig(procs)
	ways := rng.Intn(3) // 0 = direct-mapped
	cfg.Associativity = ways
	if ways == 0 {
		ways = 1
	}
	// nsets 3 and 100 exercise the modulo fallback; the rest the mask path.
	nsets := []int{1, 2, 3, 8, 100, 256}[rng.Intn(6)]
	cfg.CacheSize = DefaultLineSize * ways * nsets
	cfg.MaxContexts = rng.Intn(3)
	if rng.Intn(4) == 0 {
		cfg.Protocol = Update
	}
	if rng.Intn(4) == 0 {
		cfg.NetworkChannels = 1 + rng.Intn(3)
	}
	cfg.TrackWriteRuns = rng.Intn(2) == 0
	if rng.Intn(8) == 0 {
		cfg.InfiniteCache = true
	}
	cfg.MemLatency = []uint64{1, 13, 50}[rng.Intn(3)]
	cfg.SwitchCycles = uint64(rng.Intn(8))
	return tr, pl, cfg
}

// TestQuickEnginesAgree is the core property: for random synthetic
// workloads, random valid placements and random configurations, the fast
// engine's Result is bit-identical to the reference engine's, and
// deterministic across runs (same seed => identical Result).
func TestQuickEnginesAgree(t *testing.T) {
	prop := func(seed int64) bool {
		tr, pl, cfg := randWorkload(rand.New(rand.NewSource(seed)))
		ref, err := RunObserved(tr, pl, cfg, ReferenceEngine, nil)
		if err != nil {
			t.Logf("seed %d: reference engine error: %v", seed, err)
			return false
		}
		fast, err := RunObserved(tr, pl, cfg, FastEngine, nil)
		if err != nil {
			t.Logf("seed %d: fast engine error: %v", seed, err)
			return false
		}
		again, err := RunObserved(tr, pl, cfg, FastEngine, nil)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Logf("seed %d: engines diverge: ref exec %d vs fast exec %d", seed, ref.ExecTime, fast.ExecTime)
			return false
		}
		if !reflect.DeepEqual(fast, again) {
			t.Logf("seed %d: fast engine not deterministic", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeapOrderInvariance: the fast engine's quadHeap pops events in
// the same (time, proc) order as the reference container/heap regardless
// of insertion order, so results cannot depend on how the event queue was
// built.
func TestQuickHeapOrderInvariance(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		events := make([]event, n)
		for i := range events {
			// Narrow ranges force plenty of (time, proc) ties.
			events[i] = event{
				time: uint64(rng.Intn(16)),
				proc: rng.Intn(4),
				seq:  uint64(rng.Intn(8)),
			}
		}

		var ref eventHeap
		for _, e := range events {
			heap.Push(&ref, e)
		}
		// Insert the same multiset into two quadHeaps in different orders.
		var a, b quadHeap
		for _, e := range events {
			a.push(e)
		}
		for _, i := range rng.Perm(n) {
			b.push(events[i])
		}

		for i := 0; i < n; i++ {
			re := heap.Pop(&ref).(event)
			ae, be := a.pop(), b.pop()
			// Events tied on (time, proc) are mutually interchangeable;
			// only the (time, proc) sequence is observable.
			if ae.time != re.time || ae.proc != re.proc {
				t.Logf("seed %d pop %d: quadHeap (%d,%d) vs reference (%d,%d)", seed, i, ae.time, ae.proc, re.time, re.proc)
				return false
			}
			if be.time != re.time || be.proc != re.proc {
				t.Logf("seed %d pop %d: insertion order changed pop order", seed, i)
				return false
			}
		}
		return a.len() == 0 && b.len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
