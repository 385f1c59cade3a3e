package sim

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEnginesAgreeAcrossPages is the fast-vs-reference differential on
// cache geometries that span many of the fast cache's lazily allocated
// pages: the paper's 8 MB stand-in for an infinite cache, direct-mapped
// and 4-way; a set count that is not a power of two (modulo indexing)
// and ends in a short page, direct-mapped and 2-way; and the map-backed
// InfiniteCache. Each geometry runs a static placement, FIFO dynamic
// scheduling and an online run that migrates threads.
func TestEnginesAgreeAcrossPages(t *testing.T) {
	const (
		procs   = 16
		oddSets = 3*1024 + 7
	)
	geometries := []struct {
		name      string
		cacheSize int
		ways      int
		infinite  bool
	}{
		{"8MB-direct", InfiniteCacheSize, 1, false},
		{"8MB-4way", InfiniteCacheSize, 4, false},
		{"odd-sets-direct", oddSets * DefaultLineSize, 1, false},
		{"odd-sets-2way", oddSets * 2 * DefaultLineSize, 2, false},
		{"infinite", 0, 0, true},
	}
	online := OnlineOptions{Interval: 5000, Penalty: 100, Policy: rotatePolicy{}}
	params := workload.Params{Scale: 0.25, Seed: 1994}
	for _, name := range []string{"LocusRoute", "MP3D"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := app.Build(params)
			if err != nil {
				t.Fatal(err)
			}
			clusters := make([][]int, procs)
			for tid := 0; tid < tr.NumThreads(); tid++ {
				clusters[tid%procs] = append(clusters[tid%procs], tid)
			}
			pl := &placement.Placement{Algorithm: "ROUND-ROBIN", Clusters: clusters}
			for _, g := range geometries {
				cfg := DefaultConfig(procs)
				cfg.CacheSize, cfg.Associativity, cfg.InfiniteCache = g.cacheSize, g.ways, g.infinite
				agree := func(mode string, ref, fast *Result, rerr, ferr error) {
					t.Helper()
					if rerr != nil || ferr != nil {
						t.Fatalf("%s/%s: reference err %v, fast err %v", g.name, mode, rerr, ferr)
					}
					if !reflect.DeepEqual(ref, fast) {
						t.Errorf("%s/%s: engines diverge: reference exec %d %+v, fast exec %d %+v",
							g.name, mode, ref.ExecTime, ref.Totals(), fast.ExecTime, fast.Totals())
					}
				}

				ref, rerr := RunObserved(tr, pl, cfg, ReferenceEngine, nil)
				fast, ferr := RunObserved(tr, pl, cfg, FastEngine, nil)
				agree("static", ref, fast, rerr, ferr)

				ref, rerr = runDynamicReference(tr, cfg, FIFO)
				fast, ferr = RunDynamic(tr, cfg, FIFO)
				agree("dynamic", ref, fast, rerr, ferr)

				ref, rerr = RunOnlineGuarded(tr, pl, cfg, ReferenceEngine, online, nil, Guard{})
				fast, ferr = RunOnlineGuarded(tr, pl, cfg, FastEngine, online, nil, Guard{})
				agree("online", ref, fast, rerr, ferr)
				if fast.Online.Migrations == 0 {
					t.Errorf("%s/online: no thread migrated", g.name)
				}
			}
		})
	}
}

// TestEnginesAgreeOnLargeMachines is the fast-vs-reference differential
// past 64 processors, where the directory's sharer bitmap takes two to
// eight words and the fast engine's event keys carry 7 to 9 processor
// bits: 65 processors with one and with two threads each, 127 and 512
// with one. Every thread reads and writes one small shared pool, so
// blocks gather sharers from every bitmap word. Each machine runs
// statically and online under rotatePolicy, which keeps migrating
// threads across the whole machine.
func TestEnginesAgreeOnLargeMachines(t *testing.T) {
	for _, m := range []struct{ procs, perProc int }{{65, 1}, {65, 2}, {127, 1}, {512, 1}} {
		threads := m.procs * m.perProc
		rng := rand.New(rand.NewSource(int64(threads)))
		tr := trace.New("wide", threads)
		for i := 0; i < threads; i++ {
			r := trace.NewRecorder(tr, i)
			for j := 0; j < 24; j++ {
				r.Compute(rng.Intn(4))
				addr := trace.SharedBase + uint64(rng.Intn(32))*DefaultLineSize
				if rng.Intn(4) == 0 {
					addr = uint64(i*4096+rng.Intn(8)) * trace.WordSize
				}
				if rng.Intn(4) == 0 {
					r.Store(addr)
				} else {
					r.Load(addr)
				}
			}
		}
		clusters := make([][]int, m.procs)
		for tid := 0; tid < threads; tid++ {
			clusters[tid%m.procs] = append(clusters[tid%m.procs], tid)
		}
		pl := &placement.Placement{Algorithm: "ROUND-ROBIN", Clusters: clusters}
		cfg := DefaultConfig(m.procs)
		online := OnlineOptions{Interval: 400, Penalty: 30, Policy: rotatePolicy{}}
		for _, mode := range []string{"static", "online"} {
			opts := OnlineOptions{}
			if mode == "online" {
				opts = online
			}
			ref, rerr := RunOnlineGuarded(tr, pl, cfg, ReferenceEngine, opts, nil, Guard{})
			fast, ferr := RunOnlineGuarded(tr, pl, cfg, FastEngine, opts, nil, Guard{})
			if rerr != nil || ferr != nil {
				t.Fatalf("%dx%d/%s: reference err %v, fast err %v", m.procs, m.perProc, mode, rerr, ferr)
			}
			if !reflect.DeepEqual(ref, fast) {
				t.Errorf("%dx%d/%s: engines diverge: reference exec %d %+v, fast exec %d %+v",
					m.procs, m.perProc, mode, ref.ExecTime, ref.Totals(), fast.ExecTime, fast.Totals())
			}
			if mode == "online" && fast.Online.Migrations == 0 {
				t.Errorf("%dx%d/online: no thread migrated", m.procs, m.perProc)
			}
		}
	}
}

// TestFastCacheLargestBlock: a one-word line holds the largest block a
// trace can carry (trace.MaxAddr) at the smallest and a large line size,
// direct-mapped and associative. The block fills, hits, changes state,
// is invalidated and refetched, and a block equal to it but for its top
// bit (the same set) never aliases it.
func TestFastCacheLargestBlock(t *testing.T) {
	for _, lineSize := range []int{8, 4096} {
		for _, ways := range []int{1, 2, 4} {
			cfg := DefaultConfig(2)
			cfg.LineSize, cfg.Associativity = lineSize, ways
			cfg.CacheSize = lineSize * ways * 4
			var c fastCache
			c.init(cfg)
			blk := c.block(trace.MaxAddr)
			if want := uint64(trace.MaxAddr) >> bits.TrailingZeros(uint(lineSize)); blk != want {
				t.Fatalf("line %d: block %#x, want %#x", lineSize, blk, want)
			}
			twin := blk &^ (1 << (bits.Len64(blk) - 1))
			check := func(step string, b uint64, want lineState) {
				t.Helper()
				if got := c.lookup(b); got != want {
					t.Errorf("line %d, %d-way, %s: block %#x in state %v, want %v", lineSize, ways, step, b, got, want)
				}
			}
			check("empty", blk, invalid)
			if _, _, evicted := c.fill(blk, shared, 0); evicted {
				t.Errorf("line %d, %d-way: fill into an empty set evicted", lineSize, ways)
			}
			check("filled", blk, shared)
			check("filled", twin, invalid)
			c.setState(blk, modified)
			check("setState", blk, modified)
			if present, dirty := c.invalidate(blk, 1); !present || !dirty {
				t.Errorf("line %d, %d-way: invalidate: present %v dirty %v", lineSize, ways, present, dirty)
			}
			check("invalidated", blk, invalid)
			if kind := c.classifyMiss(blk, 0); kind != InvalidationMiss {
				t.Errorf("line %d, %d-way: refetch classified %v", lineSize, ways, kind)
			}
			if by, ok := c.invalidator(blk); !ok || by != 1 {
				t.Errorf("line %d, %d-way: invalidator %d, %v", lineSize, ways, by, ok)
			}
			c.fill(blk, modified, 0)
			check("refetched", blk, modified)
		}
	}
}
