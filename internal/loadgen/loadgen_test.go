package loadgen

import (
	"reflect"
	"sync"
	"testing"
)

// TestMixOrderDeterministic: Mix must enumerate apps x algs x procs in
// exactly the nested order a sweep's results come back in — the
// benchmarks index ground truth by cell, so order is part of the
// contract.
func TestMixOrderDeterministic(t *testing.T) {
	got := Mix([]string{"A", "B"}, []string{"x", "y"}, []int{1, 2})
	want := []Cell{
		{"A", "x", 1}, {"A", "x", 2}, {"A", "y", 1}, {"A", "y", 2},
		{"B", "x", 1}, {"B", "x", 2}, {"B", "y", 1}, {"B", "y", 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Mix order changed:\n  got  %v\n  want %v", got, want)
	}
}

// TestDefaultAndClusterMixes: the cluster mix stays well-formed — sized
// as documented and free of the ranking algorithms.
func TestDefaultAndClusterMixes(t *testing.T) {
	if got := len(ClusterMix()); got != 24 {
		t.Errorf("ClusterMix has %d cells, want 24", got)
	}
	// The cluster mix exists to keep per-cell CPU flat: only the two
	// placement algorithms with no candidate ranking are allowed in it.
	for _, c := range ClusterMix() {
		if c.Alg != "LOAD-BAL" && c.Alg != "RANDOM" {
			t.Errorf("ClusterMix contains ranking algorithm %s", c.Alg)
		}
	}
}

// TestGroundTruthDeterministic: two independent GroundTruth calls agree
// bit for bit — this is the root of every differential assertion the
// benchmarks make, so it has to hold before anything else means much.
func TestGroundTruthDeterministic(t *testing.T) {
	cells := Mix([]string{"MP3D"}, []string{"LOAD-BAL", "RANDOM"}, []int{2})
	a, err := GroundTruth(0.1, 7, cells)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroundTruth(0.1, 7, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if a[c] == nil {
			t.Fatalf("no result for %v", c)
		}
		if !reflect.DeepEqual(a[c], b[c]) {
			t.Errorf("cell %v not deterministic across runs", c)
		}
	}
}

// TestConcurrentBarrier: all n clients observe the barrier — none runs
// before release, all run exactly once, and all n are in flight at once.
func TestConcurrentBarrier(t *testing.T) {
	const n = 8
	var (
		mu        sync.Mutex
		calls     = map[int]int{}
		cur, peak int
	)
	block := make(chan struct{})
	var once sync.Once
	Concurrent(n, func(client int) {
		mu.Lock()
		calls[client]++
		cur++
		peak = max(peak, cur)
		ready := len(calls) == n
		mu.Unlock()
		if ready {
			once.Do(func() { close(block) })
		}
		// Hold until every client has entered, forcing full overlap.
		<-block
		mu.Lock()
		cur--
		mu.Unlock()
	})
	if len(calls) != n {
		t.Fatalf("%d distinct clients ran, want %d", len(calls), n)
	}
	for id, c := range calls {
		if c != 1 {
			t.Errorf("client %d ran %d times", id, c)
		}
	}
	if peak != n {
		t.Errorf("in-flight high water %d, want %d", peak, n)
	}
}
