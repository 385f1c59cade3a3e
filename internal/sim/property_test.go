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

// TestQuickEventTreeMatchesHeap drives the fast engine's event tree and
// the reference eventHeap, with its seq check, through one random
// sequence of the engine's queue operations: pushes for processors with
// no pending event, equal keys included; pops, each fresh event
// processed and mostly rescheduled; and online reschedules of processors
// whose event is still pending, which leave a stale event behind. Both
// queues must pop the same (time, proc) sequence, process the same
// events, pop as often (stale pops included) and report the same depth
// after every pop. A stale and a fresh event of one processor with equal
// keys are interchangeable: a heap pop counts as the fresh event only
// when no twin with its key is still queued, the tree's stale-first tie
// order.
func TestQuickEventTreeMatchesHeap(t *testing.T) {
	type slot struct {
		time uint64
		proc int
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 1 + rng.Intn(9)
		tree := newEventTree(procs)
		var ref eventHeap
		seq := make([]uint64, procs)
		pending := make([]int64, procs) // the fresh event's time, or -1
		queued := map[slot]int{}        // heap entries per key, stale included
		var now uint64
		fail := func(format string, args ...any) bool {
			t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
			return false
		}
		push := func(tm uint64, p int, online bool) {
			seq[p]++
			heap.Push(&ref, event{time: tm, proc: p, seq: seq[p]})
			queued[slot{tm, p}]++
			pending[p] = int64(tm)
			if online {
				tree.reschedule(tm, p)
			} else {
				tree.push(tm, p)
			}
		}
		// pop pops both queues once, compares them and reports whether the
		// popped event is fresh.
		pop := func() (event, bool, bool) {
			ev := heap.Pop(&ref).(event)
			key, stale := tree.min()
			tree.pop(key, stale)
			k := slot{ev.time, ev.proc}
			queued[k]--
			fresh := queued[k] == 0 && pending[ev.proc] == int64(ev.time)
			switch {
			case ev.seq == seq[ev.proc] && !fresh && queued[k] == 0:
				return ev, false, fail("heap's fresh event (%d,%d) classified stale", ev.time, ev.proc)
			case tree.time(key) != ev.time || tree.proc(key) != ev.proc:
				return ev, false, fail("tree popped (%d,%d), heap (%d,%d)", tree.time(key), tree.proc(key), ev.time, ev.proc)
			case stale == fresh:
				return ev, false, fail("(%d,%d): tree stale %v, heap fresh %v", ev.time, ev.proc, stale, fresh)
			case tree.len() != ref.Len():
				return ev, false, fail("depth after (%d,%d): tree %d, heap %d", ev.time, ev.proc, tree.len(), ref.Len())
			}
			if fresh {
				pending[ev.proc] = -1
				now = ev.time
			}
			return ev, fresh, true
		}

		for p := range pending {
			pending[p] = -1
			if rng.Intn(4) != 0 {
				push(uint64(rng.Intn(4)), p, false)
			}
		}
		for op := 0; op < 300; op++ {
			p := rng.Intn(procs)
			switch {
			case rng.Intn(5) == 0:
				// An online boundary at b, no later than p's pending
				// event, re-activates p.
				b := now + uint64(rng.Intn(3))
				if pending[p] >= 0 {
					b = now + uint64(rng.Int63n(pending[p]-int64(now)+1))
				}
				push(b, p, true)
			case ref.Len() == 0:
				if k, _ := tree.min(); k != noEvent || tree.len() != 0 {
					return fail("heap empty, tree holds %d events", tree.len())
				}
				push(now+uint64(rng.Intn(3)), p, false)
			default:
				ev, fresh, ok := pop()
				if !ok {
					return false
				}
				if fresh && rng.Intn(5) != 0 {
					push(now+uint64(rng.Intn(3)), ev.proc, false)
				}
			}
		}
		for ref.Len() > 0 {
			if _, _, ok := pop(); !ok {
				return false
			}
		}
		k, _ := tree.min()
		return k == noEvent && tree.len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
