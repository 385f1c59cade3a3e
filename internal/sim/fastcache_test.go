package sim

import (
	"reflect"
	"testing"

	"repro/internal/placement"
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
